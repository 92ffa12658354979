(** 48-bit Ethernet MAC addresses, stored in the low 48 bits of an [int]. *)

type t = int

let mask = 0xFFFFFFFFFFFF

(** [of_int i] keeps the low 48 bits of [i]. *)
let of_int i : t = i land mask

let to_int (t : t) = t

let broadcast : t = mask

let to_string (t : t) =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xFF) ((t lsr 32) land 0xFF) ((t lsr 24) land 0xFF)
    ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF) (t land 0xFF)

let equal (a : t) (b : t) = a = b
let pp fmt t = Format.pp_print_string fmt (to_string t)

(** [of_host_id i] gives host [i] a stable unicast locally-administered
    address. *)
let of_host_id i : t = 0x020000000000 lor (i land 0xFFFFFFFF)
