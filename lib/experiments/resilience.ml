(** Failure-recovery experiment (§5.6): a flash crowd drives the
    overlay into activation, then a seeded fault plan kills [kills] of
    the active uplink vswitches mid-crowd.  The heartbeat notices each
    corpse, a backup vswitch is promoted and every select group is
    re-balanced away from the dead uplinks; the recovery ledger records
    how long each step took and how many flows were shed meanwhile.

    Reported: per-bin flow success over time for the faulted run vs the
    same workload with no faults, plus the ledger as per-fault series
    (detection latency, time-to-rebalance, flows lost).  Same seed ⇒
    bit-identical ledger, which is what [test/test_faults.ml] checks. *)

open Scotch_workload
open Scotch_faults
module C = Scotch_controller.Controller
module Ch = Scotch_chaos

let bin_width = 2.0

let trace_params ~scale ~multiplier =
  { Tracegen.duration = 40.0 *. scale;
    base_rate = 40.0;
    flash_start = 10.0 *. scale;
    flash_end = 30.0 *. scale;
    flash_multiplier = multiplier;
    hotspot_fraction = 0.7;
    num_sources = 4;
    num_destinations = 2;
    size_of = Sizes.pareto ~alpha:1.3 ~min_packets:2 ~max_packets:100 ~pkt_rate:200.0 () }

(** Kill [kills] distinct primary vswitches at evenly spaced instants
    inside the flash window — i.e. while the overlay is activated and
    actually carrying the crowd.  Each stays down for [outage] seconds,
    then revives and rejoins as a backup. *)
let kill_plan ~(params : Tracegen.params) ~kills ~outage =
  let window = params.Tracegen.flash_end -. params.Tracegen.flash_start in
  Plan.of_list
    (List.init kills (fun i ->
         let frac = float_of_int (i + 1) /. float_of_int (kills + 1) in
         Fault.vswitch_crash
           ~at:(params.Tracegen.flash_start +. (frac *. window))
           ~duration:outage (Testbed.vswitch_dpid i)))

(* How long each killed vswitch stays down. *)
let outage (params : Tracegen.params) = Stdlib.max 6.0 (0.3 *. params.Tracegen.duration)

let num_vswitches = 4
let num_backups = 2

(** Control-channel weather for the reconciliation scenario: [drop_p]
    message loss on {e every} control channel (both physical switches
    and the whole vswitch pool) across the flash window, plus one OFA
    stall on the edge switch inside it.  Merged with the kill plan this
    is the PR 3 acceptance storm: dropped Flow_mods, a frozen agent and
    a crash/recovery, all racing the reconciler. *)
let impairment_plan ~(params : Tracegen.params) ~drop_p =
  let start = params.Tracegen.flash_start in
  let duration = params.Tracegen.flash_end -. start in
  let drops =
    List.map
      (fun dpid -> Fault.channel_drop ~at:start ~duration ~probability:drop_p dpid)
      (Testbed.edge_dpid :: Testbed.server_dpid
      :: List.init (num_vswitches + num_backups) Testbed.vswitch_dpid)
  in
  let stall =
    Fault.ofa_stall ~at:(start +. (0.25 *. duration)) ~duration:(0.15 *. duration)
      Testbed.edge_dpid
  in
  Plan.of_list (stall :: drops)

type outcome = {
  ledger : Ledger.t;
  success : (float * float) list; (* per-bin flow success fraction *)
  launched : int;  (* admitted background flows *)
  delivered : int; (* of those, delivered end-to-end *)
  schedule : Ch.Schedule.t;
      (* this run restated as a chaos schedule, so the oracle suite
         prices its fault exposure exactly as it would a searched trial *)
  verify : Scotch_verify.Hooks.t option;
      (* continuous verification (post-recovery + run-end checks), when on *)
  net : Testbed.scotch_net;
      (* the network itself, so tests can snapshot/verify after the run *)
}

(** Total control messages lost to channel impairments, across every
    connected switch. *)
let total_chan_dropped (net : Testbed.scotch_net) =
  let module Sc = Scotch_core.Scotch in
  List.fold_left
    (fun acc dpid ->
      match C.switch net.Testbed.ctrl dpid with
      | Some sw -> acc + sw.C.chan_dropped
      | None -> acc)
    0
    (Sc.managed_dpids net.Testbed.app @ Sc.vswitch_dpids net.Testbed.app)

(** Fill the recovery ledger's convergence block from the reliable
    layer's stats (no-op without one). *)
let record_convergence (net : Testbed.scotch_net) ledger =
  match net.Testbed.reliable with
  | None -> ()
  | Some r ->
    let module R = Scotch_reliable.Reliable in
    let s = R.stats r in
    Ledger.set_convergence ledger
      { Ledger.conv_retries = s.R.retries;
        conv_repaired_missing = s.R.repairs_missing;
        conv_repaired_orphans = s.R.repairs_orphan;
        conv_repaired_groups = s.R.repairs_group;
        conv_resyncs = s.R.resyncs;
        conv_txns_parked = s.R.txns_parked;
        conv_degraded_seconds = s.R.degraded_seconds;
        conv_chan_dropped = total_chan_dropped net;
        conv_expired_requests = (C.counters net.Testbed.ctrl).C.expired_requests;
        conv_windows = R.divergence_windows r;
        conv_digest = R.digest r }

(* ------------------------------------------------------------------ *)
(* Oracle-suite bridge: the scripted experiment is judged by the same
   typed oracles ([Scotch_chaos.Oracle]) as the searched chaos trials,
   so "the control plane recovered" has one definition in the tree.
   The helpers below distill live simulator handles into the plain
   observation the oracles take; the chaos runner reuses them. *)

(** The reliable layer's end state, as the Reconcile_converged oracle
    wants it ([None] when installs bypass the layer). *)
let reconcile_obs (net : Testbed.scotch_net) =
  match net.Testbed.reliable with
  | None -> None
  | Some r ->
    let module R = Scotch_reliable.Reliable in
    let module Sc = Scotch_core.Scotch in
    let outstanding =
      List.fold_left
        (fun acc dpid -> acc + R.outstanding r dpid)
        0
        (Sc.managed_dpids net.Testbed.app @ Sc.vswitch_dpids net.Testbed.app)
    in
    Some { Ch.Oracle.converged = R.converged r; outstanding }

(** The run's bit-identity fingerprint: recovery ledger (with its
    convergence block), Scotch counters, event count and clock, flow
    outcome and the reliable layer's own digest. *)
let digest_of (net : Testbed.scotch_net) ledger ~launched ~delivered =
  let module Sc = Scotch_core.Scotch in
  let c = Sc.counters net.Testbed.app in
  let counters =
    Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d" c.Sc.flows_seen
      c.Sc.flows_overlay c.Sc.flows_physical c.Sc.flows_dropped c.Sc.flows_unroutable
      c.Sc.elephants_detected c.Sc.migrations_completed c.Sc.activations c.Sc.withdrawals
      c.Sc.vswitch_failures c.Sc.quarantines c.Sc.readmissions c.Sc.promotions c.Sc.demotions
  in
  let reliable =
    match net.Testbed.reliable with
    | Some r -> Scotch_reliable.Reliable.digest r
    | None -> "-"
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ Ledger.canonical ledger; counters;
            Printf.sprintf "%d/%d" delivered launched;
            string_of_int (Scotch_sim.Engine.processed net.Testbed.engine);
            Printf.sprintf "%h" (Scotch_sim.Engine.now net.Testbed.engine); reliable ]))

(** Distill a finished run into the oracle suite's observation.  Reads
    the network {e now}, so a test that drives extra reconcile rounds
    past the experiment horizon observes the converged end state, not
    the state at the horizon.  Feed the result to
    [Scotch_chaos.Oracle.check] with [o.schedule]. *)
let observation (o : outcome) =
  let net = o.net in
  let report =
    Scotch_verify.check
      (Scotch_verify.Snapshot.capture ~scotch:net.Testbed.app
         ~now:(Scotch_sim.Engine.now net.Testbed.engine)
         net.Testbed.topo)
  in
  { Ch.Oracle.launched = o.launched;
    delivered = o.delivered;
    verify_errors = List.length (Scotch_verify.Diagnostic.errors report);
    reconcile = reconcile_obs net;
    breakers = []; (* no elastic loop in this experiment *)
    victim_sheds = None;
    digest = digest_of net o.ledger ~launched:o.launched ~delivered:o.delivered }

let run_variant ?config ?(reconcile = false) ~seed ~plan ~(params : Tracegen.params) () =
  let net =
    Testbed.scotch_net ?config ~seed ~num_vswitches ~num_backups
      ~num_clients:params.Tracegen.num_sources ~num_servers:params.Tracegen.num_destinations
      ~reconcile ()
  in
  let ledger = Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan in
  let replay = Testbed.replay_trace net ~seed params in
  (* run past the last fault clearing so revived vswitches rejoin and
     the final rebalance (if any) lands inside the horizon *)
  let horizon =
    Stdlib.max (params.Tracegen.duration +. 2.0) (Plan.last_activity plan +. 6.0)
  in
  Testbed.run_until net ~until:horizon;
  let flows = Testbed.harvest net replay in
  let delivered = List.length (List.filter snd flows) in
  record_convergence net ledger;
  let schedule =
    let workload =
      { Ch.Schedule.duration = params.Tracegen.duration;
        base_rate = params.Tracegen.base_rate;
        flash_multiplier = params.Tracegen.flash_multiplier;
        sources = params.Tracegen.num_sources }
    in
    Ch.Schedule.make ~seed
      ~cfg:{ Ch.Schedule.default_cfg with Ch.Schedule.reconcile }
      ~workload
      (List.map snd (Plan.faults plan))
  in
  { ledger;
    success = Testbed.success_bins ~bin_width ~until:params.Tracegen.duration flows;
    launched = List.length flows;
    delivered;
    schedule;
    verify = net.Testbed.verify;
    net }

(** The faulted run alone, with its recovery ledger — what the tests
    and the smoke alias drive.  [multiplier] tunes the flash-crowd
    intensity (lower it for fast smoke runs).  With [~reconcile:true]
    installs go through the reliable layer; [drop_p > 0] adds the
    control-channel storm of {!impairment_plan} to the kill plan. *)
let run_outcome ?config ?(seed = 42) ?(scale = 1.0) ?(kills = 2) ?(multiplier = 25.0)
    ?(reconcile = false) ?(drop_p = 0.0) () =
  let params = trace_params ~scale ~multiplier in
  let plan = kill_plan ~params ~kills ~outage:(outage params) in
  let plan = if drop_p > 0.0 then Plan.merge plan (impairment_plan ~params ~drop_p) else plan in
  run_variant ?config ~reconcile ~seed ~plan ~params ()

let run ?(seed = 42) ?(scale = 1.0) ?(reconcile = false) ?(drop_p = 0.0) () : Report.figure =
  let kills = 2 in
  let faulted = run_outcome ~seed ~scale ~kills ~reconcile ~drop_p () in
  let params = trace_params ~scale ~multiplier:25.0 in
  let clean = run_variant ~reconcile ~seed ~plan:Plan.empty ~params () in
  Ledger.print faulted.ledger;
  let ledger_series =
    List.map (fun (label, points) -> { Report.label; points }) (Ledger.to_series faulted.ledger)
  in
  { Report.id = "resilience";
    title =
      Printf.sprintf
        "Failure recovery: %d of 4 uplink vswitches killed for %.0f s mid flash crowd%s" kills
        (outage params)
        (if reconcile then
           Printf.sprintf " (reliable layer on%s)"
             (if drop_p > 0.0 then Printf.sprintf ", %.0f%% control-channel loss" (100.0 *. drop_p)
              else "")
         else "");
    x_label = "time (s) for success series; fault id for ledger series";
    y_label = "success fraction / seconds / flows";
    series =
      { Report.label = "flow success (vswitch kills)"; points = faulted.success }
      :: { Report.label = "flow success (no faults)"; points = clean.success }
      :: ledger_series }
