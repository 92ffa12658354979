(** Space-Saving top-k heavy-hitter sketch: bounded-memory candidate
    tracking with the guarantee [count - err <= true <= count] per
    tracked key. *)

open Scotch_packet

type t

type entry = {
  e_key : Flow_key.t;
  e_count : int; (** upper bound on the true occurrence count *)
  e_err : int;   (** overestimation inherited at eviction time *)
}

val create : capacity:int -> t

val clear : t -> unit

(** Count one occurrence of [key], evicting the minimum-count entry
    when the sketch is full. *)
val touch : t -> Flow_key.t -> unit

(** [(count, err)] for a tracked key. *)
val count : t -> Flow_key.t -> (int * int) option

(** Tracked keys, heaviest first; ties broken by key order, so the
    listing is deterministic. *)
val entries : t -> entry list
