(** Array-backed binary min-heap with an explicit comparison, used by
    the engine's event queue. *)

type 'a t

(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** O(log n) insertion. *)
val push : 'a t -> 'a -> unit

(** Minimum element without removing it; O(1). *)
val peek : 'a t -> 'a option

(** Remove and return the minimum element; O(log n). *)
val pop : 'a t -> 'a option

(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)
val pop_exn : 'a t -> 'a

(** All elements, in unspecified order. *)
val to_list : 'a t -> 'a list

(** Remove every element. *)
val clear : 'a t -> unit
