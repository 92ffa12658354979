(** IPv4 addresses as 32-bit values, plus prefix masks. *)

type t = int

val mask32 : int
val of_int : int -> t
val to_int : t -> int

(** [make a b c d] is the address [a.b.c.d]; octets must be 0-255. *)
val make : int -> int -> int -> int -> t

val to_string : t -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [prefix_mask len] is the netmask of a /len prefix (0-32). *)
val prefix_mask : int -> int

(** [matches ~addr ~value ~mask]: do [addr] and [value] agree on the
    1-bits of [mask]? *)
val matches : addr:t -> value:int -> mask:int -> bool

(** [of_host_id i] maps host [i] into 10.0.0.0/8 deterministically. *)
val of_host_id : int -> t
