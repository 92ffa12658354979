(** Verification hooks: the incremental invariant checker wired to the
    dataplane's install chokepoints, the Scotch app's post-recovery
    resync and the engine's run-end. *)

open Scotch_core
open Scotch_switch
module Topology = Scotch_topo.Topology
module Reliable = Scotch_reliable.Reliable

type report = {
  phase : string;
  at : float;
  diagnostics : Diagnostic.t list;
}

type t = {
  mutable reports : report list; (* newest first *)
  mutable checks : int;
  incr : Incremental.t;
  mutable applies : int;        (* updates pushed through [incr] *)
}

(** Control-channel sends are asynchronous, so device state lags
    controller intent by a few channel latencies — and a recovery can
    race a concurrent failure's detection window.  Half a second of
    simulated time lets the dataplane settle before we lint it. *)
let settle_delay = 0.5

(** Audit cadence: every this many incremental updates, the current
    diagnostic set is checked against a full rescan of the tracked
    model ({!Incremental.check_equivalence}).  Each audit is O(model),
    so the cadence bounds the continuous mode's amortized overhead on
    rule-churn-heavy workloads.  Clean rules allocate nothing in the
    blackhole and shadow passes, so an audit allocates for its model
    copy, its seed selection and its class walks: 9 Mwords over the 26
    audits of a [fabric-verify] run (seed 42), against 46 when every
    rule built its actions list and every seed rule its key. *)
let equiv_every = 1024

let install ~engine ~topo scotch =
  match (Scotch.config scotch).Config.verify with
  | Config.Off -> None
  | Config.Continuous ->
    let now () = Scotch_sim.Engine.now engine in
    let update_h =
      Scotch_obs.Obs.histogram ~help:"Incremental per-update verification latency (wall s)"
        ~lo:0.0 ~hi:0.005 ~bins:50 "scotch_verify_update_latency_seconds"
    in
    let incr =
      let n = now () in
      Incremental.create ~now:n (Snapshot.capture ~scotch ~now:n topo)
    in
    let st = { reports = []; checks = 0; incr; applies = 0 } in
    let apply_u u =
      let t0 = Unix.gettimeofday () in
      ignore (Incremental.apply incr ~now:(now ()) u);
      if Scotch_obs.Obs.is_enabled () then
        Scotch_obs.Registry.observe update_h (Unix.gettimeofday () -. t0);
      st.applies <- st.applies + 1;
      if st.applies mod equiv_every = 0 then ignore (Incremental.check_equivalence incr)
    in
    let tap_switch sw =
      let dpid = Switch.dpid sw in
      Switch.set_on_update sw
        (Some
           (function
             | Switch.Table_changed { table_id; added; removed } ->
               apply_u (Incremental.Table_delta { dpid; table_id; added; removed })
             | Switch.Groups_changed ->
               let groups = Group_table.groups (Switch.group_table sw) in
               apply_u (Incremental.Groups { dpid; groups })
             | Switch.Liveness_changed failed -> (
               (* ports are unchanged by a liveness flip; reuse the
                  tracked node's port list *)
               match Incremental.ports incr dpid with
               | Some ports -> apply_u (Incremental.Ports { dpid; ports; failed })
               | None -> ())))
    in
    let tap_all () = Topology.iter_switches topo tap_switch in
    let check label =
      let n = now () in
      let snap = Snapshot.capture ~scotch ~now:n topo in
      st.checks <- st.checks + 1;
      (* audit the incremental tracking against a full rescan of its own
         model, then fold in anything no tap covers (link flaps, lazy
         rule expiry, switches that joined since install) *)
      ignore (Incremental.check_equivalence incr);
      Incremental.refresh incr ~now:n snap;
      tap_all ();
      st.reports <- { phase = label; at = n; diagnostics = Incremental.diagnostics incr } :: st.reports
    in
    tap_all ();
    (match Scotch.reliable scotch with
    | Some r ->
      Reliable.set_on_intent r
        (Some
           (fun dpid ->
             Option.iter
               (fun store -> apply_u (Incremental.Intents { dpid; store }))
               (Reliable.intent_of r dpid)))
    | None -> ());
    (* re-express the verifier ledger on the metrics registry *)
    let module O = Scotch_obs.Obs in
    let stat f () = f (Incremental.stats incr) in
    O.counter_fn ~help:"Incremental verifier updates applied" "scotch_verify_updates_total"
      (stat (fun v -> v.Incremental.updates));
    O.counter_fn ~help:"Equivalence classes re-walked" "scotch_verify_classes_touched_total"
      (stat (fun v -> v.Incremental.classes_touched));
    O.counter_fn ~help:"Distinct violations first seen" "scotch_verify_violations_total"
      (stat (fun v -> v.Incremental.violations_seen));
    O.counter_fn ~help:"Full-rescan equivalence audits" "scotch_verify_equiv_checks_total"
      (stat (fun v -> v.Incremental.equiv_checks));
    O.counter_fn ~help:"Equivalence audits that disagreed" "scotch_verify_equiv_mismatches_total"
      (stat (fun v -> v.Incremental.equiv_mismatches));
    (* the batches Scotch sent since the hooks were installed *)
    let sc = Scotch.counters scotch in
    let installs_before = sc.Scotch.install_batches in
    O.counter_fn ~help:"Install batches seen at the send chokepoint"
      "scotch_verify_installs_issued_total" (fun () -> sc.Scotch.install_batches - installs_before);
    O.gauge_fn ~help:"Tracked header-space equivalence classes" "scotch_verify_class_count"
      (fun () -> float_of_int (Incremental.class_count incr));
    Scotch.on_recovery scotch (fun () ->
        Scotch_sim.Engine.schedule engine ~delay:settle_delay (fun () -> check "post-recovery"));
    Scotch_sim.Engine.on_run_end engine (fun () -> check "run-end");
    Some st

let reports t = List.rev t.reports

let checks_run t = t.checks

let error_count t =
  List.fold_left (fun acc r -> acc + List.length (Diagnostic.errors r.diagnostics)) 0 t.reports

let reports_of_phase t phase = List.filter (fun r -> r.phase = phase) (reports t)

let incremental t = Some t.incr
