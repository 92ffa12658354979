(** IPv4 addresses as 32-bit values in an [int], plus prefix masks. *)

type t = int

let mask32 = 0xFFFFFFFF

let of_int i : t = i land mask32
let to_int (t : t) = t

(** [make a b c d] is the address [a.b.c.d]. *)
let make a b c d : t =
  let octet x =
    if x < 0 || x > 255 then invalid_arg "Ipv4_addr.make: octet out of range";
    x
  in
  (octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d

let to_string (t : t) =
  Printf.sprintf "%d.%d.%d.%d"
    ((t lsr 24) land 0xFF) ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF) (t land 0xFF)

let equal (a : t) (b : t) = a = b
let pp fmt t = Format.pp_print_string fmt (to_string t)

(** [prefix_mask len] is the netmask for a /len prefix (0 <= len <= 32). *)
let prefix_mask len =
  if len < 0 || len > 32 then invalid_arg "Ipv4_addr.prefix_mask";
  if len = 0 then 0 else (mask32 lsl (32 - len)) land mask32

(** [matches ~addr ~value ~mask] tests [value] against [addr] under
    [mask] (1-bits of [mask] must agree). *)
let matches ~addr ~value ~mask = addr land mask = value land mask

(** [of_host_id i] maps host [i] into 10.0.0.0/8 deterministically. *)
let of_host_id i : t = make 10 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF)
