(** A growable FIFO ring buffer for the simulator's hot paths: a push
    and a pop allocate nothing once the buffer has grown to the
    component's peak.

    An empty slot holds the ring's placeholder, so a popped value is
    not kept alive by the buffer.  The buffer starts empty and doubles
    when full; it never shrinks. *)

type 'a t

(** [create placeholder] makes an empty ring; [placeholder] fills its
    empty slots and is never returned. *)
val create : 'a -> 'a t

val length : 'a t -> int

(** Append at the tail. *)
val push : 'a t -> 'a -> unit

(** Remove and return the head.  Raises [Invalid_argument] when empty. *)
val pop : 'a t -> 'a

(** [get t i] is the [i]-th value from the head.  Raises
    [Invalid_argument] unless [0 <= i < length t]. *)
val get : 'a t -> int -> 'a

(** [truncate t n] keeps the [n] values nearest the head and removes the
    rest.  Raises [Invalid_argument] unless [0 <= n <= length t]. *)
val truncate : 'a t -> int -> unit
