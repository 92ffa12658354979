(** The chaos experiment: the concrete simulator runner behind
    [Scotch_chaos].  {!run_schedule} executes one {!Scotch_chaos.Schedule.t}
    on the real evaluation network — the §5.6 testbed with the elastic
    loop's breakers armed and (per the schedule's cfg) the reliable
    layer and two-tenant budgets on — and distills the finished run to
    a plain {!Scotch_chaos.Oracle.observation}.  {!search},
    {!run_canary} and {!replay_file} wrap {!Scotch_chaos.Search} with
    this runner; [bin/scotch_sim.ml]'s [chaos] subcommand and the
    [@chaos] runtest smoke drive them.

    Determinism contract: everything the runner touches is seeded from
    the schedule alone, so one schedule is one run, bit for bit — the
    Determinism oracle double-runs trials to hold this honest.  The
    per-process observability registry is reset per run for the same
    reason. *)

open Scotch_switch
open Scotch_workload
open Scotch_faults
module C = Scotch_controller.Controller
module Config = Scotch_core.Config
module Overlay = Scotch_core.Overlay
module Elastic = Scotch_elastic.Elastic
module Breaker = Scotch_elastic.Breaker
module V = Scotch_verify
module Ch = Scotch_chaos

let num_active = 4
let num_backups = 2

(** Simulated seconds past the last fault clearing (and past the
    workload) the runner keeps going: heartbeat detection, group
    rebalance, breaker half-open probes and reconciler anti-entropy
    must all land {e inside} the horizon, because the oracles judge
    the recovered end state. *)
let settle = 8.0

(** The elastic loop with the pool pinned ([min_pool = max_pool]):
    the autoscaler cannot mask a fault by growing the pool, but the
    per-member breakers still eject gray members and must readmit them
    after recovery — which is exactly what the Breaker_liveness oracle
    checks. *)
let elastic_config =
  { Elastic.default_config with
    Elastic.vswitch_capacity = Profile.max_flow_setup_rate Profile.scotch_vswitch;
    min_pool = num_active;
    max_pool = num_active }

let trace_params (w : Ch.Schedule.workload) =
  { Tracegen.duration = w.Ch.Schedule.duration;
    base_rate = w.Ch.Schedule.base_rate;
    flash_start = 0.25 *. w.Ch.Schedule.duration;
    flash_end = 0.75 *. w.Ch.Schedule.duration;
    flash_multiplier = w.Ch.Schedule.flash_multiplier;
    hotspot_fraction = 0.5;
    num_sources = w.Ch.Schedule.sources;
    num_destinations = 2;
    size_of = Sizes.pareto ~alpha:1.3 ~min_packets:2 ~max_packets:50 ~pkt_rate:200.0 () }

let breaker_name = function
  | Some Breaker.Closed -> "closed"
  | Some Breaker.Open -> "open"
  | Some Breaker.Half_open -> "half-open"
  | None -> "none"

let breaker_obs (net : Testbed.scotch_net) auto =
  let obs = ref [] in
  Overlay.iter_vswitches net.Testbed.overlay (fun i ->
      let dpid = Switch.dpid i.Overlay.vsw in
      obs :=
        { Ch.Oracle.dpid;
          state = breaker_name (Elastic.breaker_state auto dpid);
          demoted = i.Overlay.is_backup || not i.Overlay.alive }
        :: !obs);
  List.sort (fun a b -> compare a.Ch.Oracle.dpid b.Ch.Oracle.dpid) !obs

(** Execute one schedule on a fresh network and observe the end state.
    This is the [Scotch_chaos.Search.runner]. *)
let run_schedule (s : Ch.Schedule.t) : Ch.Oracle.observation =
  Scotch_obs.Obs.reset ();
  let seed = s.Ch.Schedule.seed in
  let cfg = s.Ch.Schedule.cfg in
  let params = trace_params s.Ch.Schedule.workload in
  let config =
    if cfg.Ch.Schedule.tenancy then Isolation.scotch_config ~verify:Config.default.Config.verify
    else Config.default
  in
  let net =
    Testbed.scotch_net ~config ~seed ~num_vswitches:num_active ~num_backups
      ~num_clients:params.Tracegen.num_sources
      ~num_servers:params.Tracegen.num_destinations ~reconcile:cfg.Ch.Schedule.reconcile ()
  in
  let auto = Elastic.create ~config:elastic_config net.Testbed.app in
  Elastic.start auto;
  (* the attacker source exists in every run so same-cfg schedules
     allocate identical rng streams; only a Tenant_flood fault starts
     it *)
  let _atk, flood = Testbed.flood_source net in
  let plan = Ch.Schedule.plan s in
  let ledger =
    Injector.run (Injector.env ~flood ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan
  in
  let replay = Testbed.replay_trace net ~seed params in
  let horizon =
    Stdlib.max (params.Tracegen.duration +. 4.0) (Plan.last_activity plan +. settle)
  in
  Testbed.run_until net ~until:horizon;
  let flows = Testbed.harvest net replay in
  let launched = List.length flows and delivered = List.length (List.filter snd flows) in
  Resilience.record_convergence net ledger;
  let report =
    V.check
      (V.Snapshot.capture ~scotch:net.Testbed.app
         ~now:(Scotch_sim.Engine.now net.Testbed.engine)
         net.Testbed.topo)
  in
  let obs =
    { Ch.Oracle.launched;
      delivered;
      verify_errors = List.length (V.Diagnostic.errors report);
      reconcile = Resilience.reconcile_obs net;
      breakers = breaker_obs net auto;
      victim_sheds =
        (if cfg.Ch.Schedule.tenancy then
           Some (Isolation.tenant_shed_total net ~tenant:Isolation.victim)
         else None);
      digest = Resilience.digest_of net ledger ~launched ~delivered }
  in
  (* teardown last: [Elastic.stop] un-benches the standbys, a group
     rebalance the stopped clock can never ack — observing after it
     would see the teardown's own in-flight operations, not the run's *)
  Elastic.stop auto;
  obs

(* ------------------------------------------------------------------ *)
(* Search entry points *)

(** The default trial space: every fault kind over the full testbed —
    the overlay pool (active + backup dpids), both managed physical
    switches, the clients' edge access links and (when [tenancy]) the
    attacker tenant. *)
let default_spec ?(cfg = Ch.Schedule.default_cfg) () =
  let workload = Ch.Schedule.default_workload in
  { Ch.Gen.vswitches = Array.init (num_active + num_backups) Testbed.vswitch_dpid;
    phys = [| Testbed.edge_dpid; Testbed.server_dpid |];
    links =
      Array.init workload.Ch.Schedule.sources (fun i -> (Testbed.edge_dpid, i + 1));
    tenants = [| Isolation.attacker |];
    flood_rate = 300.0;
    min_faults = 2;
    max_faults = 6;
    cfg;
    workload }

let search ?(seed = 42) ?(schedules = 50) ?spec ?time_budget ?determinism_every
    ?repro_path ?log () =
  let spec = match spec with Some s -> s | None -> default_spec () in
  Ch.Search.run ~runner:run_schedule
    ~gen:(fun ~index -> Ch.Gen.generate spec ~seed ~index)
    ~schedules ?time_budget ?determinism_every ?repro_path ?log ()

(** The canary: a deliberately broken deployment — zero loss tolerance
    under a mid-flash vswitch crash padded with benign channel noise.
    The schedule {e must} violate Bounded_loss and the shrinker must
    cut the padding away; the smoke test (and [--canary]) assert the
    minimum is ≤ 3 faults and that its repro replays to the same
    verdict. *)
let canary_schedule ?(seed = 42) () =
  let w = { Ch.Schedule.default_workload with Ch.Schedule.duration = 8.0 } in
  let tol = { Ch.Schedule.base_loss = 0.0; exposure_loss = 0.0; max_loss = 0.0 } in
  let cfg = { Ch.Schedule.default_cfg with Ch.Schedule.tolerance = tol } in
  let d = w.Ch.Schedule.duration in
  let vsw = Testbed.vswitch_dpid in
  let faults =
    [ Fault.vswitch_crash ~at:(0.40 *. d) ~duration:1.5 (vsw 0);
      Fault.channel_delay ~at:(0.20 *. d) ~duration:1.0 ~extra:0.002 Testbed.edge_dpid;
      Fault.channel_dup ~at:(0.30 *. d) ~duration:1.0 ~probability:0.2 (vsw 1);
      Fault.channel_reorder ~at:(0.45 *. d) ~duration:1.0 ~probability:0.2 (vsw 2);
      Fault.ofa_slowdown ~at:(0.55 *. d) ~duration:1.0 ~factor:2.0 Testbed.server_dpid;
      Fault.stats_outage ~at:(0.25 *. d) ~duration:2.0;
      Fault.channel_drop ~at:(0.60 *. d) ~duration:1.0 ~probability:0.05 (vsw 3) ]
  in
  Ch.Schedule.make ~seed ~cfg ~workload:w faults

let run_canary ?seed ?repro_path ?log () =
  let s = canary_schedule ?seed () in
  Ch.Search.run ~runner:run_schedule
    ~gen:(fun ~index:_ -> s)
    ~schedules:1 ~determinism_every:0 ?repro_path ?log ()

(** Load a repro file and re-execute its schedule (including the
    determinism double-run).  Returns the repro and the violations the
    replay produced; a faithful repro reproduces every oracle it
    names. *)
let replay_file path =
  Result.map
    (fun (r : Ch.Repro.t) ->
      (r, Ch.Search.replay ~runner:run_schedule r.Ch.Repro.schedule))
    (Ch.Repro.load path)

(** Did the replay reproduce the repro's verdict — every recorded
    oracle fired again? *)
let replay_faithful (r : Ch.Repro.t) violations =
  List.for_all
    (fun o ->
      List.exists (fun (v : Ch.Oracle.violation) -> v.Ch.Oracle.oracle = o) violations)
    r.Ch.Repro.violated
