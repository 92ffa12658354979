(** 48-bit Ethernet MAC addresses. *)

type t = int

(** Keep the low 48 bits of an int. *)
val of_int : int -> t

val to_int : t -> int
val broadcast : t

val to_string : t -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [of_host_id i] gives host [i] a stable locally-administered unicast
    address. *)
val of_host_id : int -> t
