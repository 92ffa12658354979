(** Synthetic trace generation and replay (the Fig. 15-style
    trace-driven experiment): Poisson flow arrivals with heavy-tailed
    sizes, a destination hotspot and an optional flash-crowd window
    multiplying the arrival rate. *)

open Scotch_util

type flow_event = {
  at : float;  (** launch time *)
  src : int;   (** index into the source array *)
  dst : int;   (** index into the destination array *)
  spec : Flow_gen.flow_spec;
}

type params = {
  duration : float;
  base_rate : float;        (** aggregate new flows per second *)
  flash_start : float;      (** set start >= duration to disable *)
  flash_end : float;
  flash_multiplier : float;
  hotspot_fraction : float; (** fraction of flows aimed at destination 0 *)
  num_sources : int;
  num_destinations : int;
  size_of : Rng.t -> Flow_gen.flow_spec;
}

(** Generate the trace as a time-sorted event list (thinning a
    non-homogeneous Poisson process). *)
val generate : Rng.t -> params -> flow_event list

(** Total packets a trace will emit. *)
val total_packets : flow_event list -> int

(** Schedule every event: each launches one flow from [sources.(src)]
    toward [destinations.(dst)].  The returned array fills with the
    launched records as simulation time passes each event. *)
val replay :
  Scotch_sim.Engine.t -> flow_event list -> sources:Source.t array ->
  destinations:Scotch_topo.Host.t array -> Flow_gen.launched option array
