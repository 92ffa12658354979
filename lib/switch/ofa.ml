(** The OpenFlow Agent: the switch's software control plane.

    "The OFA typically runs on a low end CPU that has limited processing
    power … this can significantly limit the control path throughput"
    (§3.1).  We model it as a single server with two bounded input
    queues — controller messages (strict priority: the agent drains its
    TCP socket eagerly) and outbound Packet-In jobs — plus a periodic
    housekeeping stall during which the server pauses and queues
    overflow.  Service times and capacities come from {!Profile}.

    Effects of served jobs (rule installation, packet output, stats
    reads) are delegated to the owning switch through a {!handler}. *)

open Scotch_openflow
open Scotch_packet
module Admission = Scotch_util.Admission

type pin_job = {
  in_port : int;
  tunnel_id : int option;
  reason : Of_types.Packet_in_reason.t;
  packet : Packet.t;
}

(** Switch-side effects the OFA triggers when jobs complete. *)
type handler = {
  install_flow : Of_msg.Flow_mod.t -> (unit, [ `Table_full ]) result;
  modify_group :
    Of_msg.Group_mod.t ->
    (unit, [ `Group_exists | `Unknown_group | `Empty_buckets ]) result;
  execute_packet_out : Of_msg.Packet_out.t -> unit;
  flow_stats : Of_msg.Stats.flow_stats_request -> Of_msg.Stats.flow_stats_reply;
  group_stats : unit -> Of_msg.Stats.group_stats_reply;
  telemetry : unit -> Of_msg.Telemetry.report; (* drain the sampler window *)
  on_flow_mod_rejected : unit -> unit; (* datapath reject stall hook *)
}

type counters = {
  mutable pin_submitted : int;     (* new-flow packets offered to the pin queue *)
  mutable pin_sent : int;          (* Packet-In messages emitted *)
  mutable pin_dropped : int;       (* new-flow packets lost at the pin queue *)
  mutable pin_expired : int;       (* queued pin jobs shed past the deadline *)
  mutable pin_budget_dropped : int; (* refused by the submitter's own tenant budget *)
  mutable flow_mods_handled : int;
  mutable flow_mods_dropped : int; (* controller messages lost at the queue *)
  mutable msgs_handled : int;
}

type t = {
  engine : Scotch_sim.Engine.t;
  profile : Profile.t;
  housekeeping_phase : float;
      (* per-device offset of the maintenance window: real agents'
         housekeeping clocks are not synchronized across devices *)
  rng : Scotch_util.Rng.t;
      (* ±5 % service-time jitter: exact identical service times in a
         deterministic simulator phase-lock unrelated devices and create
         correlation cascades no real agent exhibits *)
  pin_queue : pin_job Admission.item Queue.t;
  cmsg_queue : Of_msg.t Queue.t;
  admission : Admission.t;
  mutable pin_policy : Admission.policy;
  mutable pin_deadline : float; (* 0. = disabled *)
  mutable pin_tenant_of : pin_job -> int; (* applied once, at submission *)
  expire_pin : pin_job Admission.item -> unit;
  mutable busy : bool;
  (* The job in service: the Packet-In job [serving_pin] when
     [serving_is_pin], else the controller message [serving_msg].  The
     field not in use, and both once the job completes, hold the
     placeholders below, so a finished job is not kept alive. *)
  mutable serving_is_pin : bool;
  mutable serving_pin : pin_job;
  mutable serving_msg : Of_msg.t;
  mutable complete : Scotch_sim.Engine.handler option;
      (* registered on the first service: ends the job in service *)
  mutable to_controller : Of_msg.t -> unit;
  handler : handler;
  counters : counters;
  mutable next_xid : int;
  mutable dead : bool; (* failure injection: a dead agent is silent *)
  mutable slowdown : float;
      (* failure injection: service-time multiplier (> 1 models a
         CPU-starved agent, e.g. an SNMP walk or a BGP burst on the
         management CPU) *)
  mutable stalled_until : float;
      (* failure injection: the agent freezes (queues keep filling and
         overflowing) until this absolute time *)
  dpid : int;
  service_h : Scotch_obs.Registry.histogram;
      (* service-time distribution; observed only when obs is enabled *)
  hot_pin : Scotch_obs.Obs.hot_site; (* trace decimation: per-job serve spans *)
  hot_msg : Scotch_obs.Obs.hot_site;
}

(* Re-express this agent's ledger on the metrics registry: counters are
   polled from the [counters] record at snapshot time, queue depths are
   pull-style gauges — the serve/submit hot paths stay untouched. *)
let register_metrics t =
  let module O = Scotch_obs.Obs in
  let labels = [ ("dpid", string_of_int t.dpid) ] in
  let c = t.counters in
  O.counter_fn ~help:"New-flow packets offered to the OFA's Packet-In queue" ~labels
    "scotch_ofa_pin_submitted_total" (fun () -> c.pin_submitted);
  O.counter_fn ~help:"Packet-In messages emitted by the OFA" ~labels
    "scotch_ofa_pin_sent_total" (fun () -> c.pin_sent);
  O.counter_fn ~help:"New-flow packets lost at the Packet-In queue" ~labels
    "scotch_ofa_pin_dropped_total" (fun () -> c.pin_dropped);
  O.counter_fn ~help:"Queued Packet-In jobs shed past the pin deadline" ~labels
    "scotch_ofa_pin_expired_total" (fun () -> c.pin_expired);
  O.counter_fn ~help:"Pin jobs refused by the submitter's own tenant budget" ~labels
    "scotch_ofa_pin_budget_dropped_total" (fun () -> c.pin_budget_dropped);
  O.counter_fn ~help:"FlowMods applied by the OFA" ~labels
    "scotch_ofa_flow_mods_handled_total" (fun () -> c.flow_mods_handled);
  O.counter_fn ~help:"Controller messages lost at the OFA queue" ~labels
    "scotch_ofa_flow_mods_dropped_total" (fun () -> c.flow_mods_dropped);
  O.counter_fn ~help:"Controller messages served by the OFA" ~labels
    "scotch_ofa_msgs_handled_total" (fun () -> c.msgs_handled);
  O.gauge_fn ~help:"OFA input queue depth" ~labels:(("queue", "cmsg") :: labels)
    "scotch_ofa_queue_depth" (fun () -> float_of_int (Queue.length t.cmsg_queue));
  O.gauge_fn ~help:"OFA input queue depth" ~labels:(("queue", "pin") :: labels)
    "scotch_ofa_queue_depth" (fun () -> float_of_int (Queue.length t.pin_queue))

let no_pin =
  { in_port = 0; tunnel_id = None; reason = Of_types.Packet_in_reason.No_match;
    packet = Packet.placeholder }

let no_msg = Of_msg.make ~xid:0 Of_msg.Echo_reply

let create ?(housekeeping_phase = 0.0) ?(jitter_seed = 0) ?(dpid = 0) engine ~profile ~handler =
  let counters =
    { pin_submitted = 0; pin_sent = 0; pin_dropped = 0; pin_expired = 0; pin_budget_dropped = 0;
      flow_mods_handled = 0; flow_mods_dropped = 0; msgs_handled = 0 }
  in
  let t =
    { engine; profile; housekeeping_phase; rng = Scotch_util.Rng.create (jitter_seed lxor 0x0FA);
      pin_queue = Queue.create (); cmsg_queue = Queue.create ();
      admission = Admission.create (); pin_policy = Admission.Drop_new; pin_deadline = 0.0;
      pin_tenant_of = (fun _ -> 0);
      expire_pin = (fun _ -> counters.pin_expired <- counters.pin_expired + 1);
      busy = false; serving_is_pin = false; serving_pin = no_pin; serving_msg = no_msg;
      complete = None; to_controller = (fun _ -> ()); handler; counters;
      next_xid = 1; dead = false; slowdown = 1.0; stalled_until = 0.0; dpid;
      service_h =
        Scotch_obs.Obs.histogram ~help:"OFA job service time (virtual seconds)"
          ~labels:[ ("dpid", string_of_int dpid) ] ~lo:0.0 ~hi:0.05 ~bins:50
          "scotch_ofa_service_time_seconds";
      hot_pin = Scotch_obs.Obs.hot_site (); hot_msg = Scotch_obs.Obs.hot_site () }
  in
  register_metrics t;
  t

(** Wire the switch→controller direction (set by the control channel). *)
let connect_controller t send = t.to_controller <- send

let counters t = t.counters

let fresh_xid t =
  let x = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  x

(** End of the housekeeping window covering [now], if any. *)
let housekeeping_end t ~now =
  let p = t.profile.Profile.housekeeping_period in
  if p <= 0.0 then None
  else begin
    let shifted = now -. t.housekeeping_phase in
    let phase = Float.rem (Float.rem shifted p +. p) p in
    if phase < t.profile.Profile.housekeeping_duration then
      Some (now -. phase +. t.profile.Profile.housekeeping_duration)
    else None
  end

let execute_pin t { in_port; tunnel_id; reason; packet } =
  let c = t.counters in
  c.pin_sent <- c.pin_sent + 1;
  let pi = Of_msg.Packet_in.make ?tunnel_id ~reason ~in_port packet in
  t.to_controller (Of_msg.make ~xid:(fresh_xid t) (Of_msg.Packet_in pi))

let execute_msg t (msg : Of_msg.t) =
  let c = t.counters in
  c.msgs_handled <- c.msgs_handled + 1;
  let reply payload = t.to_controller (Of_msg.make ~xid:msg.Of_msg.xid payload) in
  match msg.Of_msg.payload with
  | Of_msg.Flow_mod fm ->
    c.flow_mods_handled <- c.flow_mods_handled + 1;
    (match t.handler.install_flow fm with
    | Ok () -> ()
    | Error `Table_full -> reply (Of_msg.Error "table full"))
  | Of_msg.Group_mod gm -> (
    match t.handler.modify_group gm with
    | Ok () -> ()
    | Error `Group_exists -> reply (Of_msg.Error "group exists")
    | Error `Unknown_group -> reply (Of_msg.Error "unknown group")
    | Error `Empty_buckets -> reply (Of_msg.Error "empty bucket list"))
  | Of_msg.Packet_out po -> t.handler.execute_packet_out po
  | Of_msg.Echo_request -> reply Of_msg.Echo_reply
  | Of_msg.Flow_stats_request req -> reply (Of_msg.Flow_stats_reply (t.handler.flow_stats req))
  | Of_msg.Group_stats_request -> reply (Of_msg.Group_stats_reply (t.handler.group_stats ()))
  | Of_msg.Telemetry_request -> reply (Of_msg.Telemetry_reply (t.handler.telemetry ()))
  | Of_msg.Barrier_request -> reply Of_msg.Barrier_reply
  | Of_msg.Echo_reply | Of_msg.Barrier_reply | Of_msg.Error _ | Of_msg.Flow_stats_reply _
  | Of_msg.Group_stats_reply _ | Of_msg.Telemetry_reply _ | Of_msg.Packet_in _ -> ()

(** Failure injection (§5.6 testing): a dead OFA neither serves nor
    accepts anything — in particular it stops answering Echo requests,
    which is how the controller detects the failure. *)
let set_dead t dead = t.dead <- dead

let is_dead t = t.dead

(** Failure injection: multiply every service time by [factor] (1.0
    restores nominal speed).  Jobs already in service finish at their
    scheduled time; the factor applies from the next job on. *)
let set_slowdown t factor =
  if factor <= 0.0 then invalid_arg "Ofa.set_slowdown: factor must be positive";
  t.slowdown <- factor

let slowdown t = t.slowdown

(** Failure injection: freeze the agent until absolute time [until].
    Unlike {!set_dead} the agent still accepts queue entries (and drops
    on overflow), it just does not serve them — the §3.1 "OFA busy with
    housekeeping" pathology, stretched. *)
let stall t ~until = t.stalled_until <- Stdlib.max t.stalled_until until

let stalled_until t = t.stalled_until

(** Admission knobs for the Packet-In queue. *)
let set_pin_policy t p = t.pin_policy <- p

let set_pin_deadline t d =
  if d < 0.0 then invalid_arg "Ofa.set_pin_deadline: deadline must be >= 0";
  t.pin_deadline <- d

let set_pin_tenant_classifier t f = t.pin_tenant_of <- f

let admission t = t.admission

let shed_total t = t.counters.pin_dropped + t.counters.pin_expired

(* Start serving the job the in-service fields hold: it completes
   after its service time, pushed past a housekeeping window or a
   stall, through the [complete] handler. *)
let rec start_service t =
  t.busy <- true;
  let p = t.profile in
  let now = Scotch_sim.Engine.now t.engine in
  let start = match housekeeping_end t ~now with None -> now | Some e -> e in
  let start = Stdlib.max start t.stalled_until in
  let base =
    if t.serving_is_pin then p.Profile.packet_in_service
    else
      match t.serving_msg.Of_msg.payload with
      | Of_msg.Flow_mod _ -> p.Profile.flow_mod_service
      | Of_msg.Packet_out _ -> p.Profile.packet_out_service
      | _ -> p.Profile.misc_service
  in
  (* ±5 % jitter, see [rng] *)
  let finish =
    start +. (base *. t.slowdown *. (0.95 +. Scotch_util.Rng.float t.rng 0.1))
  in
  if Scotch_obs.Obs.is_enabled () then begin
    Scotch_obs.Registry.observe t.service_h (finish -. start);
    (* per-job spans fire for every served packet — decimated per site
       so the histogram stays exact but the trace stays small *)
    let name, site =
      if t.serving_is_pin then ("ofa.serve.packet_in", t.hot_pin)
      else ("ofa.serve.msg", t.hot_msg)
    in
    if Scotch_obs.Obs.hot_keep site then
      Scotch_obs.Obs.span ~name ~cat:"switch" ~ts:start ~dur:(finish -. start) ~tid:t.dpid
        ~args:[]
  end;
  let on_finish =
    match t.complete with
    | Some h -> h
    | None ->
      let h = Scotch_sim.Engine.handler t.engine (fun () -> complete t) in
      t.complete <- Some h;
      h
  in
  Scotch_sim.Engine.fire_at t.engine ~at:finish on_finish

(* The job in service is done: run its effect, then serve the next. *)
and complete t =
  if t.dead then begin
    (* the agent died mid-service: the job is lost, but [busy] must
       clear or a revived agent never serves again — it would accept
       queue entries forever without draining them (and so never
       answer another Echo) *)
    t.busy <- false;
    t.serving_pin <- no_pin;
    t.serving_msg <- no_msg
  end
  else begin
    if t.serving_is_pin then begin
      let job = t.serving_pin in
      t.serving_pin <- no_pin;
      execute_pin t job
    end
    else begin
      let msg = t.serving_msg in
      t.serving_msg <- no_msg;
      execute_msg t msg
    end;
    serve t
  end

and serve t =
  if t.dead then t.busy <- false
  else if not (Queue.is_empty t.cmsg_queue) then begin
    (* controller messages have strict priority over Packet-In
       generation *)
    t.serving_is_pin <- false;
    t.serving_msg <- Queue.take t.cmsg_queue;
    start_service t
  end
  else
    (* stale pin jobs are shed without burning a service slot: the
       controller would only see them after the flow's packets had
       already been lost or rerouted *)
    match
      Admission.take t.admission t.pin_queue ~now:(Scotch_sim.Engine.now t.engine)
        ~deadline:t.pin_deadline ~expire:t.expire_pin
    with
    | Some item ->
      t.serving_is_pin <- true;
      t.serving_pin <- item.Admission.payload;
      start_service t
    | None -> t.busy <- false

let kick t = if not t.busy then serve t

let enqueue_pin t ~tenant job =
  Admission.push t.admission t.pin_queue ~at:(Scotch_sim.Engine.now t.engine) ~tenant job;
  kick t

(** [submit_packet_in t job] queues a new-flow packet for Packet-In
    generation; drops it (counted) when the queue is full — this is the
    control-path loss at the heart of §3.2.  A tenant past its pin
    budget sheds only its own job, and drop-oldest never evicts another
    tenant's queued work. *)
let submit_packet_in t (job : pin_job) =
  let c = t.counters in
  (* the arrival-process counter: offered load, before any admission
     verdict *)
  c.pin_submitted <- c.pin_submitted + 1;
  let tenant = t.pin_tenant_of job in
  let within_budget = Admission.offer t.admission ~tenant in
  if t.dead then begin
    c.pin_dropped <- c.pin_dropped + 1;
    Admission.refuse t.admission ~tenant
  end
  else if not within_budget then begin
    (* the tenant's own pin budget bit: refuse its newcomer without
       touching the shared queue — kept out of [pin_dropped] so the
       autoscaler never reads budget enforcement as pool overload *)
    c.pin_budget_dropped <- c.pin_budget_dropped + 1;
    Admission.refuse t.admission ~tenant
  end
  else if Queue.length t.pin_queue < t.profile.Profile.pin_queue_capacity then
    enqueue_pin t ~tenant job
  else begin
    (* full: either the newcomer or its tenant's oldest job is lost *)
    c.pin_dropped <- c.pin_dropped + 1;
    match t.pin_policy with
    | Admission.Drop_new -> Admission.refuse t.admission ~tenant
    | Admission.Drop_oldest | Admission.Priority_preserving -> (
      match Admission.evict_oldest t.admission t.pin_queue ~tenant with
      | Some _ -> enqueue_pin t ~tenant job
      | None -> Admission.refuse t.admission ~tenant)
  end

(** [deliver_message t msg] is the controller→switch direction.  A full
    queue drops the message; dropped FlowMods additionally trigger the
    datapath reject-stall hook (TCAM thrash, Fig. 10). *)
let deliver_message t (msg : Of_msg.t) =
  if t.dead then ()
  else if Queue.length t.cmsg_queue >= t.profile.Profile.ofa_queue_capacity then begin
    (match msg.Of_msg.payload with
    | Of_msg.Flow_mod _ ->
      t.counters.flow_mods_dropped <- t.counters.flow_mods_dropped + 1;
      t.handler.on_flow_mod_rejected ()
    | _ -> ())
  end
  else begin
    Queue.push msg t.cmsg_queue;
    kick t
  end

(** Queue depths, for observability. *)
let queue_depths t = (Queue.length t.cmsg_queue, Queue.length t.pin_queue)
