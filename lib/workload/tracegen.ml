(** Synthetic trace generation and replay (the Fig. 15-style
    trace-driven experiment).

    No public trace ships with the paper, so we synthesize one with the
    empirical shape that matters: Poisson flow arrivals with a
    heavy-tailed (Pareto) size distribution, a destination hotspot, and
    an optional {e flash crowd} window during which the arrival rate
    multiplies — the benign overload scenario Scotch targets alongside
    DDoS. *)

open Scotch_util

type flow_event = {
  at : float;            (* launch time *)
  src : int;             (* index into the source-host array *)
  dst : int;             (* index into the destination-host array *)
  spec : Flow_gen.flow_spec;
}

type params = {
  duration : float;
  base_rate : float;          (* aggregate new flows per second *)
  flash_start : float;        (* flash crowd window (set start >= duration to disable) *)
  flash_end : float;
  flash_multiplier : float;
  hotspot_fraction : float;   (* fraction of flows aimed at destination 0 *)
  num_sources : int;
  num_destinations : int;
  size_of : Rng.t -> Flow_gen.flow_spec;
}

(* Arrival rate in effect at time [t]. *)
let rate_at p t =
  if t >= p.flash_start && t < p.flash_end then p.base_rate *. p.flash_multiplier
  else p.base_rate

(** [generate rng p] produces the trace as a time-sorted event list
    (thinning a non-homogeneous Poisson process). *)
let generate rng p =
  let max_rate = Stdlib.max p.base_rate (p.base_rate *. p.flash_multiplier) in
  let rec go t acc =
    let t = t +. Rng.exponential rng ~rate:max_rate in
    if t >= p.duration then List.rev acc
    else if Rng.float rng max_rate <= rate_at p t then begin
      let src = Rng.int rng p.num_sources in
      let dst =
        if Rng.bernoulli rng p.hotspot_fraction then 0
        else 1 + Rng.int rng (Stdlib.max 1 (p.num_destinations - 1))
      in
      let spec = p.size_of rng in
      go t ({ at = t; src; dst; spec } :: acc)
    end
    else go t acc
  in
  go 0.0 []

(** Total packets a trace will emit (workload sanity checks). *)
let total_packets trace =
  List.fold_left (fun acc e -> acc + e.spec.Flow_gen.packets) 0 trace

(** [replay engine trace ~sources ~destinations] schedules every event:
    each launches one flow from [sources.(src)] toward
    [destinations.(dst)].  Returns an array filled with the per-event
    launched records as simulation time passes each event. *)
let replay engine trace ~(sources : Source.t array) ~(destinations : Scotch_topo.Host.t array)
    =
  let launched : Flow_gen.launched option array = Array.make (List.length trace) None in
  List.iteri
    (fun i ev ->
      Scotch_sim.Engine.schedule_at engine ~at:ev.at (fun () ->
          let src = sources.(ev.src) in
          let spec = ev.spec in
          Source.set_destination src ~dst:destinations.(ev.dst);
          launched.(i) <- Some (Source.launch_flow ~spec src)))
    trace;
  launched
