(** Canonical flow identity: the 5-tuple the controller keys its Flow
    Info Database on, and that select-group load balancing hashes
    (ECMP-style, §5.1 of the paper). *)

type t = {
  ip_src : Ipv4_addr.t;
  ip_dst : Ipv4_addr.t;
  proto : int;
  l4_src : int; (* 0 when the transport has no ports *)
  l4_dst : int;
}

val make :
  ?l4_src:int -> ?l4_dst:int -> ip_src:Ipv4_addr.t -> ip_dst:Ipv4_addr.t -> proto:int ->
  unit -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** Non-negative FNV-1a hash over the tuple fields; the select-group
    bucket chooser uses this, so all packets of a flow take the same
    bucket. *)
val hash : t -> int

(** [hash] over the fields given one by one:
    [hash t = hash_fields ~ip_src:t.ip_src ~ip_dst:t.ip_dst ...].
    Allocates nothing. *)
val hash_fields :
  ip_src:Ipv4_addr.t -> ip_dst:Ipv4_addr.t -> proto:int -> l4_src:int -> l4_dst:int -> int

val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Hashtbl : Hashtbl.S with type key = t
