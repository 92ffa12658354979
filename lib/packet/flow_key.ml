(** Canonical flow identity: the 5-tuple the OpenFlow controller keys its
    Flow Info Database on, and that select-group load balancing hashes
    (ECMP-style, §5.1). *)

type t = {
  ip_src : Ipv4_addr.t;
  ip_dst : Ipv4_addr.t;
  proto : int;
  l4_src : int; (* 0 when the transport has no ports *)
  l4_dst : int;
}

let make ?(l4_src = 0) ?(l4_dst = 0) ~ip_src ~ip_dst ~proto () =
  { ip_src; ip_dst; proto; l4_src; l4_dst }

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

(* One FNV-1a round: xor the field's low 32 bits in, multiply by the
   64-bit prime.  Inlined, so the [Int64] accumulator stays unboxed. *)
let[@inline] fnv_step h v =
  Int64.mul (Int64.logxor h (Int64.of_int (v land 0xFFFFFFFF))) 0x100000001B3L

(** FNV-1a over the five fields in tuple order; the select-group bucket
    chooser uses this so that packets of one flow always take the same
    bucket ("packets from the same flow follow the same overlay data
    path").  Reads the fields as arguments, so a caller holding them
    elsewhere (a packet's headers) builds no key; allocates nothing. *)
let hash_fields ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst =
  let h = fnv_step 0xCBF29CE484222325L ip_src in
  let h = fnv_step h ip_dst in
  let h = fnv_step h proto in
  let h = fnv_step h l4_src in
  let h = fnv_step h l4_dst in
  (* keep 62 bits so the result is non-negative on 63-bit OCaml ints *)
  Int64.to_int (Int64.shift_right_logical h 2)

let hash (t : t) =
  hash_fields ~ip_src:t.ip_src ~ip_dst:t.ip_dst ~proto:t.proto ~l4_src:t.l4_src
    ~l4_dst:t.l4_dst

let to_string t =
  Printf.sprintf "%s:%d->%s:%d/%d"
    (Ipv4_addr.to_string t.ip_src) t.l4_src (Ipv4_addr.to_string t.ip_dst) t.l4_dst t.proto

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Hashtbl = Stdlib.Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
