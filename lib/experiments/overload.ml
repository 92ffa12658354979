(** Graceful-degradation experiment: a flash crowd at ~3x the active
    pool's flow-setup capacity, with a gray failure (gradual vswitch
    degradation) injected mid-crowd.

    The pool is deliberately weak — two active members of ~50 flows/s
    each — so the crowd must be absorbed by the three mechanisms under
    test rather than by raw headroom:

    - {e admission control}: Drop_oldest shedding plus serve-time
      deadlines on both the controller's Fig. 7 ingress queues and the
      vswitch OFA pin queues, so admitted flows see bounded decision
      latency no matter how deep the overload;
    - {e circuit breakers}: the degraded member answers heartbeats but
      slows to a crawl; only the Echo-probe health score notices, and
      the breaker quarantines it out of the select groups until it
      recovers;
    - {e the elastic autoscaler}: sustained overload promotes the two
      standbys and then provisions fresh members (dpids 150+) up to
      [max_pool]; once the crowd passes, the pool drains back down to
      [min_pool] without oscillating.

    Reported: per-bin flow success for elastic vs static variants, the
    active-pool-size timeline and the admitted-flow p99 decision
    latency.  Same seed ⇒ bit-identical ledger and obs-trace digests
    (what the overload smoke in [test/smoke.ml] checks). *)

open Scotch_switch
open Scotch_topo
open Scotch_workload
open Scotch_faults
module C = Scotch_controller.Controller
module Scotch = Scotch_core.Scotch
module Overlay = Scotch_core.Overlay
module Elastic = Scotch_elastic.Elastic
module O = Scotch_obs.Obs

let bin_width = 2.0
let num_active = 2
let num_backups = 2
let max_pool = 6

(** A deliberately weak pool member: an Open vSwitch on a busy host.
    Max flow-setup rate 1/(1/100 + 1/200 + 1/200) = 50 flows/s; short
    queues so overload turns into visible shedding, not unbounded
    latency. *)
let weak_vswitch =
  { Profile.scotch_vswitch with
    Profile.packet_in_service = 1.0 /. 100.0;
    flow_mod_service = 1.0 /. 200.0;
    packet_out_service = 1.0 /. 200.0;
    ofa_queue_capacity = 50;
    pin_queue_capacity = 50 }

let vswitch_capacity = Profile.max_flow_setup_rate weak_vswitch

(* Admission-control deadlines (virtual seconds): any served ingress
   item is at most [ingress_deadline] old, any served pin at most
   [pin_deadline] — together they bound an admitted flow's decision
   latency (checked against [p99_bound]). *)
let ingress_deadline = 0.5
let pin_deadline = 0.15
let p99_bound = 0.5

(* Shed early rather than queue deep: the per-port ingress service rate
   is rule_rate / ports = 20/s, so a backlog of 8 already costs ~0.4s —
   anything deeper would expire against [ingress_deadline] instead of
   being diverted.  A low overlay threshold pushes the flash crowd onto
   the vswitch pool, which is the resource the autoscaler can grow. *)
let scotch_config =
  { Scotch_core.Config.default with
    Scotch_core.Config.shed_policy = Scotch_util.Admission.Drop_oldest;
    overlay_threshold = 8;
    ingress_deadline }

(** The resilience flash crowd with flows capped at 60 packets; with
    the defaults the peak is 40 x 7.5 = 300 flows/s = 3x the active
    pool's 100 flows/s. *)
let trace_params ~scale ~multiplier =
  { (Resilience.trace_params ~scale ~multiplier) with
    Tracegen.size_of = Sizes.pareto ~alpha:1.3 ~min_packets:2 ~max_packets:60 ~pkt_rate:200.0 () }

(** One gray failure mid-flash: vswitch 0's service times ramp to
    [peak] x and back — it never misses a heartbeat, so only the
    breaker can save the select groups from it. *)
let degrade_plan ~(params : Tracegen.params) ~peak =
  let window = params.Tracegen.flash_end -. params.Tracegen.flash_start in
  Plan.of_list
    [ Fault.vswitch_degrade
        ~at:(params.Tracegen.flash_start +. (0.2 *. window))
        ~duration:(0.6 *. window) ~peak (Testbed.vswitch_dpid 0) ]

let elastic_config =
  { Elastic.default_config with
    Elastic.vswitch_capacity;
    (* controller messages have strict priority in the OFA, so an Echo
       only waits out the in-flight job: ~10 ms for a healthy member
       (even saturated), ~200 ms mean at 40x degradation.  Budget 50 ms
       (unhealthy above 75 ms); the probe timeout is 300 ms. *)
    rtt_budget = 0.05;
    min_pool = num_active;
    max_pool }

(** Join a freshly provisioned vswitch's delivery tunnels without
    stealing any host's primary cover (the last [cover_host] wins, so
    re-assert the previous primary). *)
let cover_all_hosts (net : Testbed.scotch_net) v =
  let hosts = Array.concat [ net.Testbed.clients; [| net.Testbed.attacker |]; net.Testbed.servers ] in
  Array.iter
    (fun h ->
      let ov = net.Testbed.overlay in
      match Overlay.cover_of_ip ov (Host.ip h) with
      | prev ->
        Overlay.cover_host ov ~vswitch_dpid:(Switch.dpid v) h;
        Overlay.cover_host ov ~vswitch_dpid:prev h
      | exception Not_found -> Overlay.cover_host ov ~vswitch_dpid:(Switch.dpid v) h)
    hosts

let arm_pin_admission v =
  let ofa = Switch.ofa v in
  Ofa.set_pin_policy ofa Scotch_util.Admission.Drop_oldest;
  Ofa.set_pin_deadline ofa pin_deadline

(** The autoscaler's substrate: build, join (active) and arm a new
    weak vswitch at dpid 150+i, up to [max_pool - num_active -
    num_backups] of them. *)
let make_provision (net : Testbed.scotch_net) =
  let budget = max_pool - num_active - num_backups in
  let next = ref 0 in
  fun () ->
    if !next >= budget then None
    else begin
      let i = !next in
      incr next;
      let v =
        Switch.create net.Testbed.engine ~dpid:(150 + i)
          ~name:(Printf.sprintf "vsw-elastic%d" i)
          ~profile:weak_vswitch ()
      in
      Topology.add_switch net.Testbed.topo v;
      let sw =
        Scotch.add_vswitch_live net.Testbed.app v ~channel_latency:Testbed.control_latency
          ~as_backup:false
      in
      cover_all_hosts net v;
      arm_pin_admission v;
      Some sw
    end

(** Admission-layer shedding across the whole net: controller ingress
    (dropped + evicted + expired) plus the pin queues of every pool
    member, provisioned ones included. *)
let total_shed (net : Testbed.scotch_net) =
  Scotch.admission_sum net.Testbed.app ~sched:Scotch_core.Sched.shed_total ~ofa:Ofa.shed_total

type outcome = {
  p99 : float option;            (* admitted-flow decision latency, s *)
  launched : int;                (* flows actually launched *)
  delivered : int;               (* flows that reached the server *)
  shed : int;                    (* admission-layer sheds (ingress + pin) *)
  success : (float * float) list;         (* per-bin delivery fraction *)
  pool_timeline : (float * float) list;   (* (t, active pool size), 0.5 s samples *)
  actions : Elastic.action list; (* autoscaler actions, oldest first *)
  ejects : int;
  readmits : int;
  final_pool : int;              (* active members at the horizon *)
  ledger_digest : string;
  trace_digest : string;         (* obs trace digest — the determinism check *)
  net : Testbed.scotch_net;
  elastic : Elastic.t option;
}

let run_variant ?(elastic = true) ~verify ~seed ~plan
    ~(params : Tracegen.params) () =
  (* fresh obs world per run: the trace feeds both the admitted-flow
     p99 (decision spans) and the determinism digest; size the ring so
     nothing is evicted *)
  O.reset ~capacity:(1 lsl 20) ();
  O.enable ();
  let net =
    Testbed.scotch_net ~seed ~vswitch_profile:weak_vswitch
      ~config:{ scotch_config with Scotch_core.Config.verify }
      ~num_vswitches:num_active ~num_backups ~num_clients:params.Tracegen.num_sources
      ~num_servers:params.Tracegen.num_destinations ()
  in
  Array.iter arm_pin_admission net.Testbed.vswitches;
  (* both variants run with benched standbys so they face the same
     active membership — the static baseline just has nobody to
     promote them *)
  Scotch.bench_standbys net.Testbed.app true;
  let auto =
    if not elastic then None
    else begin
      let a =
        Elastic.create ~config:elastic_config ~provision:(make_provision net) net.Testbed.app
      in
      Elastic.start a;
      Some a
    end
  in
  let ledger =
    Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan
  in
  let timeline = ref [] in
  let stop_sampler =
    Scotch_sim.Engine.every net.Testbed.engine ~period:0.5 ~start:0.0 (fun () ->
        timeline :=
          (Scotch_sim.Engine.now net.Testbed.engine,
           float_of_int (List.length (Overlay.active_vswitches net.Testbed.overlay)))
          :: !timeline)
  in
  let replay = Testbed.replay_trace net ~seed params in
  (* run well past the flash so the autoscaler's drain-down converges
     inside the horizon *)
  let horizon =
    Stdlib.max (params.Tracegen.duration +. 16.0) (Plan.last_activity plan +. 6.0)
  in
  Testbed.run_until net ~until:horizon;
  stop_sampler ();
  Option.iter Elastic.stop auto;
  let flows = Testbed.harvest net replay in
  { p99 = Testbed.decision_p99 ();
    launched = List.length flows;
    delivered = List.length (List.filter snd flows);
    shed = total_shed net;
    success = Testbed.success_bins ~bin_width ~until:params.Tracegen.duration flows;
    pool_timeline = List.rev !timeline;
    actions = (match auto with Some a -> Elastic.actions a | None -> []);
    ejects = (match auto with Some a -> (Elastic.counters a).Elastic.ejects | None -> 0);
    readmits = (match auto with Some a -> (Elastic.counters a).Elastic.readmits | None -> 0);
    final_pool = List.length (Overlay.active_vswitches net.Testbed.overlay);
    ledger_digest = Ledger.digest ledger;
    trace_digest = Scotch_obs.Trace.digest (O.tracer ());
    net;
    elastic = auto }

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let params = trace_params ~scale ~multiplier:7.5 in
  let plan = degrade_plan ~params ~peak:40.0 in
  let verify = Scotch_core.Config.Off in
  let elastic = run_variant ~elastic:true ~verify ~seed ~plan ~params () in
  let static = run_variant ~elastic:false ~verify ~seed ~plan ~params () in
  Printf.printf
    "overload: elastic p99=%s s, shed=%d, delivered=%d/%d, actions=%d, ejects=%d, \
     readmits=%d, final pool=%d\n"
    (match elastic.p99 with Some q -> Printf.sprintf "%.3f" q | None -> "n/a")
    elastic.shed elastic.delivered elastic.launched
    (List.length elastic.actions) elastic.ejects elastic.readmits elastic.final_pool;
  Printf.printf "overload: static  p99=%s s, shed=%d, delivered=%d/%d\n%!"
    (match static.p99 with Some q -> Printf.sprintf "%.3f" q | None -> "n/a")
    static.shed static.delivered static.launched;
  { Report.id = "overload";
    title =
      Printf.sprintf
        "Graceful degradation: %.0f flows/s flash on a %.0f flows/s pool (3x), gray failure \
         mid-crowd"
        (params.Tracegen.base_rate *. params.Tracegen.flash_multiplier)
        (float_of_int num_active *. vswitch_capacity);
    x_label = "time (s)";
    y_label = "success fraction / active pool size";
    series =
      [ { Report.label = "flow success (elastic)"; points = elastic.success };
        { Report.label = "flow success (static pool)"; points = static.success };
        { Report.label = "active pool (elastic)"; points = elastic.pool_timeline };
        { Report.label = "active pool (static)"; points = static.pool_timeline } ] }
