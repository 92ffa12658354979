(** Online statistics: exact sample sets and sliding-window rate
    meters. *)

(** Stores every sample; supports exact percentiles.  Meant for
    experiment-sized data (up to a few million points). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** [percentile t p] with [p] in [0,1], linear interpolation between
      closest ranks.  Raises [Invalid_argument] when empty. *)
  val percentile : t -> float -> float

  val median : t -> float
end

(** Counts events within a sliding window; the controller's congestion
    monitor uses this to estimate Packet-In rates (§4.2 of the paper). *)
module Rate_meter : sig
  type t

  (** [create ~window] with [window] in seconds. *)
  val create : window:float -> t

  (** [tick t ~now] records one event at time [now]. *)
  val tick : t -> now:float -> unit

  (** Event rate (per second) over the trailing window. *)
  val rate : t -> now:float -> float

  (** All-time event count (survives window expiry). *)
  val total : t -> int
end
