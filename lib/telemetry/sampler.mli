(** Per-vswitch packet sampler: seeded deterministic coin at a
    configurable rate on the datapath forward path, counting hits into
    a bounded top-k sketch drained by periodic controller polls. *)

open Scotch_packet

type t

(** One drained report window. *)
type report = {
  r_rate : float;    (** sampling probability in force this window *)
  r_window : float;  (** seconds covered *)
  r_seen : int;      (** duty packets offered *)
  r_sampled : int;   (** coin hits *)
  r_records : (Flow_key.t * int) list; (** sampled counts, heaviest first *)
}

(** [create ~seed ~dpid ~rate ()] — the coin stream is seeded from
    [(seed, dpid)]; [topk] bounds the sketch (default 16).  The new
    sampler samples every packet offered until {!set_duty_uplinks}.
    Raises unless [rate] is in (0,1]. *)
val create : ?topk:int -> seed:int -> dpid:int -> rate:float -> unit -> t

(** Pool membership: a sampler whose vswitch left the active pool is
    disabled (no draws, no duty). *)
val set_enabled : t -> bool -> unit

val enabled : t -> bool

(** Restrict duty to packets arriving on the given uplink tunnel ids —
    the flows whose {e entry} hop this vswitch is, so every overlay
    packet is sampled exactly once pool-wide. *)
val set_duty_uplinks : t -> int list -> unit

val on_duty : t -> tunnel_id:int option -> bool

(** Forward-path tap: duty check, one coin flip, and on a hit the flow
    key (computed lazily via [key_of]) is counted into the sketch. *)
val offer : t -> tunnel_id:int option -> (unit -> Flow_key.t) -> unit

(** Drain the current window and reset the sketch; chains the report
    into {!digest}. *)
val report : t -> now:float -> report

val canonical_of_report : report -> string

(** Lifetime counters. *)
val seen : t -> int

val sampled : t -> int
val reports : t -> int

(** Chained digest over all drained reports — byte-identical across two
    same-seed runs (the determinism test oracle). *)
val digest : t -> string
