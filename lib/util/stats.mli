(** Online statistics: counters, running moments, exact sample sets and
    sliding-window rate meters. *)

(** Plain event counters. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Numerically stable mean/variance over a stream (Welford), plus
    min/max. *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int

  (** [nan] when empty. *)
  val mean : t -> float

  (** Sample variance (n-1 denominator); 0 for fewer than two points. *)
  val variance : t -> float

  val min : t -> float
  val max : t -> float
end

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
