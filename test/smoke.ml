(* The end-to-end smokes: `smoke.exe NAME DIGESTS` runs one smoke
   from the table at the bottom, asserting its gates and exiting
   non-zero with a message on the first miss.

   Each smoke returns the digests it computed; they are written one per
   line, keyed by smoke, seed, scale and config, to the file DIGESTS.
   test/golden/dune runs every smoke once per `dune runtest` and
   diffs the collected lines against test/golden/digests.expected, so an
   intended change to a seeded run is a reviewed `dune promote`.  One
   process runs one smoke: the observability world is process-global.

   Verification and obs observe a run without steering it: each
   determinism rerun flips the verify mode (or, in fig12, obs) of the
   run it repeats and must reproduce its digests (fig12 also reruns
   fig11 with obs on and must reproduce its table).

   - resilience: the §5.6 failover story at its smallest configuration
     (2 kills), under continuous verification;
   - reconcile: the same recovery path with the reliable layer on and a
     control-channel loss storm plus an OFA stall, under continuous
     verification;
   - chaos: a fixed budget of seeded random fault schedules, plus the
     canary the shrinker must cut and whose repro must replay;
   - obs: a short flash crowd with metrics and tracing on;
   - overload: graceful degradation under a flash crowd past pool
     capacity plus a gray failure;
   - telemetry: exact polling vs 1/100 packet sampling;
   - isolation: the multi-tenant blast-radius contract;
   - model: the analytic OFA model vs the discrete-event OFA, and the
     autoscaler under a moderate flash crowd;
   - fig12: the §5.3 large-flow migration figure, and fig11 with obs
     on and off. *)

open Scotch_experiments
module Config = Scotch_core.Config
module Ledger = Scotch_faults.Ledger
module Oracle = Scotch_chaos.Oracle
module Search = Scotch_chaos.Search
module Hooks = Scotch_verify.Hooks
module Incremental = Scotch_verify.Incremental
module Diagnostic = Scotch_verify.Diagnostic
module Elastic = Scotch_elastic.Elastic
module R = Scotch_reliable.Reliable

let seed = 42
let current = ref "smoke"

let md5 s = Digest.to_hex (Digest.string s)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline (!current ^ " smoke FAILED: " ^ s);
      exit 1)
    fmt

(* The shared chaos oracle suite on a scripted run restated as a
   schedule: the same definition of healthy as the searched trials. *)
let oracles_clean ~what (o : Resilience.outcome) =
  match Oracle.check o.Resilience.schedule (Resilience.observation o) with
  | [] ->
    Printf.printf "oracle suite: clean (%d/%d flows delivered)\n" o.Resilience.delivered
      o.Resilience.launched
  | vs ->
    List.iter (fun v -> prerr_endline (Format.asprintf "%a" Oracle.pp_violation v)) vs;
    fail "%d oracle violation(s) %s" (List.length vs) what

(* The continuous verifier's verdict on a run: no error in any hook
   report, every full-rescan audit agreeing with the incremental set,
   and no error in the maintained diagnostic set as it stands now. *)
let verifier_clean ~what (o : Resilience.outcome) =
  let v =
    match o.Resilience.verify with
    | Some v -> v
    | None -> fail "invariant-checker hooks were not installed"
  in
  List.iter
    (fun (r : Hooks.report) ->
      match Diagnostic.errors r.Hooks.diagnostics with
      | [] -> ()
      | errs ->
        List.iter (fun d -> prerr_endline (Diagnostic.to_string d)) errs;
        fail "%s check at t=%.2f found %d invariant error(s)" r.Hooks.phase r.Hooks.at
          (List.length errs))
    (Hooks.reports v);
  let incr =
    match Hooks.incremental v with
    | Some i -> i
    | None -> fail "no incremental verifier in Continuous mode"
  in
  let st = Incremental.stats incr in
  if st.Incremental.equiv_mismatches <> 0 then
    fail "%d equivalence audit(s) disagreed with the incremental diagnostic set"
      st.Incremental.equiv_mismatches;
  (match Diagnostic.errors (Incremental.diagnostics incr) with
  | [] -> ()
  | errs ->
    List.iter (fun d -> prerr_endline (Diagnostic.to_string d)) errs;
    fail "%d error diagnostic(s) on the %s workload" (List.length errs) what);
  Printf.printf "invariant checker: %d check(s), %d update(s), %d audit(s), 0 errors\n"
    (Hooks.checks_run v) st.Incremental.updates st.Incremental.equiv_checks;
  v

(* ------------------------------------------------------------------ *)
(* resilience: heartbeat detection inside [timeout, timeout + period +
   slack], a backup promoted for every kill, every select group
   rebalanced and both corpses revived; the recovered end state judged
   by the oracle suite; the continuous verifier's post-recovery and
   run-end checks, its full-rescan audits and its maintained diagnostic
   set all clean; the ledger the same with verification off, at seeds
   42 and 7. *)

(* Verification observes without steering: a run's digests are the
   same whether it was continuously verified or not. *)
let agree ~what ~seed ~verified ~unverified =
  if verified <> unverified then fail "%s differ with verification off (seed %d)" what seed

(* The same, for the pair of runs [digests ~seed ~verify] makes. *)
let pure ~what ~seed digests =
  let verified = digests ~seed ~verify:Config.Continuous in
  agree ~what ~seed ~verified ~unverified:(digests ~seed ~verify:Config.Off)

let resilience () =
  let scale = 0.25 and kills = 2 and multiplier = 5.0 in
  let run ~seed ~verify =
    Resilience.run_outcome ~config:{ Config.default with Config.verify } ~seed ~scale ~kills
      ~multiplier ()
  in
  let o = run ~seed ~verify:Config.Continuous in
  let ledger = o.Resilience.ledger in
  Ledger.print ledger;
  let recs = Ledger.records ledger in
  if List.length recs <> kills then
    fail "expected %d ledger records, got %d" kills (List.length recs);
  List.iter
    (fun (r : Ledger.record) ->
      (match Ledger.detection_latency r with
      | None -> fail "%s: heartbeat loss never detected" r.Ledger.label
      | Some d when d < 3.0 || d > 4.5 ->
        fail "%s: detection latency %.3f s out of range" r.Ledger.label d
      | Some _ -> ());
      (match Ledger.time_to_rebalance r with
      | None -> fail "%s: select groups never rebalanced" r.Ledger.label
      | Some t when t >= 6.0 -> fail "%s: rebalance took %.3f s" r.Ledger.label t
      | Some _ -> ());
      if r.Ledger.backup_promoted = None then fail "%s: no backup promoted" r.Ledger.label;
      if r.Ledger.cleared_at = None then fail "%s: vswitch never revived" r.Ledger.label)
    recs;
  oracles_clean ~what:"in the recovered end state" o;
  (* mid-run checks the end-state oracle cannot express *)
  let v = verifier_clean ~what:"clean resilience" o in
  let post_recovery = Hooks.reports_of_phase v "post-recovery" in
  if List.length post_recovery < kills then
    fail "expected a post-recovery check per kill, got %d" (List.length post_recovery);
  if Hooks.reports_of_phase v "run-end" = [] then fail "no run-end check";
  let ledger_of ~seed ~verify = Ledger.digest (run ~seed ~verify).Resilience.ledger in
  agree ~what:"ledger digests" ~seed ~verified:(Ledger.digest ledger)
    ~unverified:(ledger_of ~seed ~verify:Config.Off);
  pure ~what:"ledger digests" ~seed:7 ledger_of;
  [ ( Printf.sprintf "scale=%g kills=%d x%g verify=continuous ledger" scale kills multiplier,
      Ledger.digest ledger ) ]

(* ------------------------------------------------------------------ *)
(* reconcile: 20 % message loss on every control channel across the
   flash window, one OFA stall and one vswitch crash.  Convergence
   within a bounded number of extra reconcile rounds, then the oracle
   suite on the converged state (intent == actual, nothing
   outstanding, loss within the storm's priced exposure).  The run is
   under continuous verification, so the Divergence invariant diffs
   the live intent stores against the device throughout, and is held to
   the resilience smoke's verifier checks after convergence; the ledger
   and reconcile digests are the same with verification off. *)

let reconcile () =
  let scale = 0.25 and kills = 1 and multiplier = 5.0 and drop_p = 0.2 in
  (* the storm run, then reconcile rounds until the reliable layer
     converges (at most 16): the outcome, the layer and the rounds *)
  let converged_storm ~verify =
    let o =
      Resilience.run_outcome ~config:{ Config.default with Config.verify } ~seed ~scale ~kills
        ~multiplier ~reconcile:true ~drop_p ()
    in
    let net = o.Resilience.net in
    let r =
      match net.Testbed.reliable with
      | Some r -> r
      | None -> fail "reliable layer was not built"
    in
    let engine = net.Testbed.engine in
    let rounds = ref 0 in
    while (not (R.converged r)) && !rounds < 16 do
      incr rounds;
      Testbed.run_until net ~until:(Scotch_sim.Engine.now engine +. R.reconcile_interval)
    done;
    (o, r, !rounds)
  in
  let o, r, rounds = converged_storm ~verify:Config.Continuous in
  let net = o.Resilience.net in
  let engine = net.Testbed.engine in
  if not (R.converged r) then fail "reconciler never converged (16 extra rounds)";
  Printf.printf "converged after %d extra round(s)\n" rounds;
  (match Ledger.convergence o.Resilience.ledger with
  | None -> fail "no convergence block in the recovery ledger"
  | Some c ->
    if c.Ledger.conv_chan_dropped = 0 then fail "storm never bit: no control messages dropped";
    Printf.printf
      "storm: %d msg dropped, %d retries, %d+%d+%d repairs, %d resyncs, %d expired xids\n"
      c.Ledger.conv_chan_dropped c.Ledger.conv_retries c.Ledger.conv_repaired_missing
      c.Ledger.conv_repaired_orphans c.Ledger.conv_repaired_groups c.Ledger.conv_resyncs
      c.Ledger.conv_expired_requests);
  (* the reliable layer's intent stores must be in the capture *)
  let snap =
    Scotch_verify.Snapshot.capture ~scotch:net.Testbed.app
      ~now:(Scotch_sim.Engine.now engine) net.Testbed.topo
  in
  if snap.Scotch_verify.Snapshot.intents = None then fail "snapshot carries no intent stores";
  oracles_clean ~what:"after convergence" o;
  ignore (verifier_clean ~what:"converged reconcile" o);
  let o_off, r_off, _ = converged_storm ~verify:Config.Off in
  agree ~what:"ledger and reconcile digests" ~seed
    ~verified:(Ledger.digest o.Resilience.ledger, R.digest r)
    ~unverified:(Ledger.digest o_off.Resilience.ledger, R.digest r_off);
  [ ( Printf.sprintf "scale=%g kills=%d x%g drop=%g verify=continuous reconcile" scale kills
        multiplier drop_p,
      R.digest r ) ]

(* ------------------------------------------------------------------ *)
(* chaos: every searched schedule passes the oracle suite (including
   the periodic determinism double-runs); the canary — zero loss
   tolerance under a mid-flash vswitch crash padded with benign noise —
   must violate, shrink to <= 3 faults and replay from its repro. *)

let chaos () =
  let schedules = 20 in
  let o = Chaos.search ~seed ~schedules () in
  if o.Search.explored <> schedules then
    fail "explored %d of %d schedules" o.Search.explored schedules;
  if o.Search.determinism_checks = 0 then fail "no determinism double-runs";
  if o.Search.violated_schedules <> 0 then begin
    List.iter
      (fun (i, vs) ->
        List.iter
          (fun v -> Printf.eprintf "trial %d: %s\n" i (Format.asprintf "%a" Oracle.pp_violation v))
          vs)
      o.Search.violations;
    fail "%d of %d schedules violated the oracle suite" o.Search.violated_schedules
      o.Search.explored
  end;
  Printf.printf "search: %d schedules, %d faults, %d determinism double-runs, 0 violations\n"
    o.Search.explored o.Search.faults_injected o.Search.determinism_checks;
  let repro_path = Filename.temp_file "scotch-chaos-canary" ".txt" in
  let c = Chaos.run_canary ~seed ~repro_path () in
  if c.Search.violated_schedules = 0 then fail "canary did not violate any oracle";
  let minimal =
    match c.Search.shrunk with
    | None -> fail "canary violation was not shrunk"
    | Some s ->
      let original = List.length s.Search.original.Scotch_chaos.Schedule.faults in
      let minimal = List.length s.Search.minimal.Scotch_chaos.Schedule.faults in
      if minimal > 3 then fail "canary shrunk to %d faults (want <= 3)" minimal;
      if s.Search.minimal_violations = [] then fail "minimal canary schedule no longer fails";
      Printf.printf "canary: shrunk %d -> %d fault(s) in %d candidate run(s)\n" original
        minimal s.Search.shrink_tests;
      s.Search.minimal
  in
  (match Chaos.replay_file repro_path with
  | Error e -> fail "repro unreadable: %s" e
  | Ok (r, violations) ->
    if not (Chaos.replay_faithful r violations) then
      fail "replay did not reproduce the recorded verdict";
    Printf.printf "canary repro replayed: %s reproduced\n"
      (String.concat ", " (List.map Oracle.oracle_name r.Scotch_chaos.Repro.violated)));
  Sys.remove repro_path;
  [ ( Printf.sprintf "schedules=%d search+canary" schedules,
      md5
        (Printf.sprintf "explored=%d faults=%d determinism=%d\n%s" o.Search.explored
           o.Search.faults_injected o.Search.determinism_checks
           (Scotch_chaos.Schedule.print minimal)) ) ]

(* ------------------------------------------------------------------ *)
(* obs: a non-empty, schema-valid Prometheus snapshot (every sample
   line is `name{labels} value`, every family has HELP/TYPE headers)
   and metric families plus a trace covering the packet-in lifecycle:
   dp miss -> OFA -> controller Packet-In -> Scotch decision. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let is_sample_line line =
  match String.rindex_opt line ' ' with
  | None -> false
  | Some sp ->
    let name = String.sub line 0 sp in
    let value = String.sub line (sp + 1) (String.length line - sp - 1) in
    name <> "" && value <> ""
    && Option.is_some (float_of_string_opt value)
    &&
    let base = match String.index_opt name '{' with None -> name | Some i -> String.sub name 0 i in
    base <> ""
    && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_') base

let obs () =
  let module Obs = Scotch_obs.Obs in
  let module Registry = Scotch_obs.Registry in
  let module Trace = Scotch_obs.Trace in
  let attack_rate = 400.0 and client_rate = 20.0 and until = 2.0 in
  Obs.reset ();
  Obs.enable ();
  let net = Testbed.scotch_net ~seed () in
  let client = Testbed.client_source net ~i:0 ~rate:client_rate () in
  let attack = Testbed.attack_source net ~rate:attack_rate () in
  Scotch_workload.Source.start client;
  Scotch_workload.Source.start attack;
  Testbed.run_until net ~until;
  let prom = Registry.to_prometheus (Obs.registry ()) in
  if prom = "" then fail "empty Prometheus snapshot";
  let samples = ref 0 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        if is_sample_line line then incr samples
        else fail "malformed Prometheus line: %S" line)
    (String.split_on_char '\n' prom);
  if !samples = 0 then fail "no samples in the snapshot";
  List.iter
    (fun family ->
      if not (contains prom ("# TYPE " ^ family)) then fail "family %s missing" family)
    [ "scotch_switch_rx_total"; "scotch_ofa_pin_sent_total"; "scotch_ofa_queue_depth";
      "scotch_ofa_service_time_seconds"; "scotch_controller_packet_ins_total";
      "scotch_controller_rtt_seconds"; "scotch_core_flows_seen_total";
      "scotch_core_flows_overlay_total"; "scotch_engine_events_processed" ];
  let nonzero name =
    List.exists
      (fun s -> s.Registry.s_value > 0.0 && contains s.Registry.s_name name)
      (Registry.samples (Obs.registry ()))
  in
  List.iter
    (fun name -> if not (nonzero name) then fail "metric %s never moved" name)
    [ "scotch_switch_rx_total"; "scotch_controller_packet_ins_total";
      "scotch_core_flows_overlay_total"; "scotch_ofa_service_time_seconds" ];
  let tr = Obs.tracer () in
  if Trace.emitted tr = 0 then fail "no trace events emitted";
  let names = List.map (fun e -> e.Trace.name) (Trace.events tr) in
  List.iter
    (fun n -> if not (List.mem n names) then fail "trace misses %s" n)
    [ "dp.miss"; "ofa.serve.packet_in"; "controller.packet_in"; "controller.rtt";
      "scotch.decision" ];
  let json = Trace.to_chrome_json tr in
  if not (contains json "{\"traceEvents\":[{") then fail "trace JSON has no events";
  if not (contains json "\"displayTimeUnit\":\"ms\"") then fail "trace JSON footer missing";
  Printf.printf "%d samples, %d trace events\n" !samples (Trace.length tr);
  [ ( Printf.sprintf "until=%g attack=%g client=%g trace" until attack_rate client_rate,
      Trace.digest tr ) ]

(* ------------------------------------------------------------------ *)
(* overload: admission-layer shedding happened, admitted-flow p99
   decision latency inside the bound, the autoscaler grew the pool and
   drained it back without flapping, the breaker ejected and readmitted
   the degraded member, elastic delivers >= 15 % more than static,
   same-seed runs with verification on and off are bit-identical (at
   seeds 42 and 7) and the continuously verified run stays
   invariant-clean. *)

(* One run of the overload scenario: a flash crowd of [multiplier]
   (7.5 is 3x pool capacity) plus the gray failure, as [Overload.run]
   builds it. *)
let overload_run ~seed ~scale ~multiplier ~elastic ~verify =
  let params = Overload.trace_params ~scale ~multiplier in
  let plan = Overload.degrade_plan ~params ~peak:40.0 in
  Overload.run_variant ~elastic ~verify ~seed ~plan ~params ()

let overload () =
  let scale = 0.5 in
  let run ~seed ~verify = overload_run ~seed ~scale ~multiplier:7.5 ~elastic:true ~verify in
  let o = run ~seed ~verify:Config.Continuous in
  let st = overload_run ~seed ~scale ~multiplier:7.5 ~elastic:false ~verify:Config.Off in
  Printf.printf
    "p99=%s launched=%d delivered=%d shed=%d actions=%d ejects=%d readmits=%d final_pool=%d\n"
    (match o.Overload.p99 with Some q -> Printf.sprintf "%.3fs" q | None -> "n/a")
    o.Overload.launched o.Overload.delivered o.Overload.shed
    (List.length o.Overload.actions) o.Overload.ejects o.Overload.readmits
    o.Overload.final_pool;
  Option.iter
    (fun a ->
      let c = Elastic.counters a in
      Printf.printf "probes=%d timeouts=%d score100=%s\n" c.Elastic.probes_sent
        c.Elastic.probe_timeouts
        (match Elastic.health_score a 100 with
        | Some s -> Printf.sprintf "%.2f" s
        | None -> "n/a"))
    o.Overload.elastic;
  if o.Overload.shed = 0 then fail "expected admission-layer shedding under a 3x flash";
  (match o.Overload.p99 with
  | None -> fail "no decision-latency observations"
  | Some q ->
    if q > Overload.p99_bound then
      fail "admitted-flow p99 decision latency %.3fs exceeds bound %.3fs" q Overload.p99_bound);
  let ups = List.filter (fun a -> a.Elastic.dir = `Up) o.Overload.actions in
  if ups = [] then fail "autoscaler never scaled up under a 3x flash";
  let peak_pool =
    List.fold_left (fun acc (_, n) -> Stdlib.max acc n) 0.0 o.Overload.pool_timeline
  in
  if peak_pool <= float_of_int Overload.num_active then
    fail "active pool never grew past %d (peak %.0f)" Overload.num_active peak_pool;
  if o.Overload.final_pool <> Overload.num_active then
    fail "pool did not drain back to %d members (final %d)" Overload.num_active
      o.Overload.final_pool;
  let horizon =
    List.fold_left (fun acc (t, _) -> Stdlib.max acc t) 0.0 o.Overload.pool_timeline
  in
  List.iter
    (fun a ->
      if a.Elastic.time > horizon -. 5.0 then
        fail "autoscaler still acting at t=%.1f (horizon %.1f): not converged" a.Elastic.time
          horizon)
    o.Overload.actions;
  (* no flapping: adjacent opposite-direction actions at least a
     cooldown apart, and a bounded action count *)
  let dir a = match a.Elastic.dir with `Up -> "up" | `Down -> "down" in
  let rec check_flap = function
    | a :: (b :: _ as rest) ->
      if a.Elastic.dir <> b.Elastic.dir && b.Elastic.time -. a.Elastic.time < 2.0 then
        fail "autoscaler flapped: %s then %s within %.2fs" (dir a) (dir b)
          (b.Elastic.time -. a.Elastic.time);
      check_flap rest
    | _ -> ()
  in
  check_flap o.Overload.actions;
  if List.length o.Overload.actions > 2 * Overload.max_pool then
    fail "%d autoscaler actions: oscillating" (List.length o.Overload.actions);
  if o.Overload.ejects < 1 then fail "breaker never ejected the degraded vswitch";
  if o.Overload.readmits < 1 then fail "breaker never readmitted the recovered vswitch";
  (* graceful, not magical: the elastic pool must deliver substantially
     more than the static one and keep the delivered fraction above a
     floor *)
  if o.Overload.launched = 0 then fail "no flows launched";
  let frac = float_of_int o.Overload.delivered /. float_of_int o.Overload.launched in
  if frac < 0.3 then fail "only %.0f%% of flows delivered" (100.0 *. frac);
  Printf.printf "delivered elastic=%d static=%d (launched %d)\n" o.Overload.delivered
    st.Overload.delivered o.Overload.launched;
  if float_of_int o.Overload.delivered < 1.15 *. float_of_int st.Overload.delivered then
    fail "elastic pool delivered %d vs static %d: autoscaling bought < 15%%"
      o.Overload.delivered st.Overload.delivered;
  let digests ~seed ~verify =
    let o = run ~seed ~verify in
    (o.Overload.ledger_digest, o.Overload.trace_digest)
  in
  agree ~what:"same-seed ledger and trace digests" ~seed
    ~verified:(o.Overload.ledger_digest, o.Overload.trace_digest)
    ~unverified:(digests ~seed ~verify:Config.Off);
  pure ~what:"same-seed ledger and trace digests" ~seed:7 digests;
  let v =
    match o.Overload.net.Testbed.verify with
    | Some v -> v
    | None -> fail "verification hooks not installed despite Continuous config"
  in
  if Hooks.checks_run v = 0 then fail "verifier never checked";
  if Hooks.error_count v > 0 then
    fail "%d dataplane invariant errors under overload" (Hooks.error_count v);
  (match Hooks.incremental v with
  | None -> fail "no incremental verifier in Continuous mode"
  | Some incr ->
    let s = Incremental.stats incr in
    Printf.printf "verify updates=%d classes=%d equiv=%d/%d p50=%.0fus p99=%.0fus\n"
      s.Incremental.updates s.Incremental.classes_touched s.Incremental.equiv_checks
      s.Incremental.equiv_mismatches s.Incremental.p50_us s.Incremental.p99_us;
    if s.Incremental.equiv_mismatches > 0 then
      fail "incremental verifier disagreed with full rescan %d times"
        s.Incremental.equiv_mismatches);
  let key = Printf.sprintf "scale=%g verify=continuous" scale in
  [ (key ^ " ledger", o.Overload.ledger_digest); (key ^ " trace", o.Overload.trace_digest) ]

(* ------------------------------------------------------------------ *)
(* telemetry: the sampled path finds every planted elephant (recall >=
   0.9) without false alarms (precision >= 0.9), migrates them, spends
   at most a tenth of the exact path's stats-channel messages and wire
   bytes, stays invariant-clean, and its same-seed rerun with
   verification off agrees but for the verify counters. *)

(* The exact baseline and the headline 1/100 sampled run on one seed,
   as long as [Telemetry.run] runs them. *)
let telemetry_pair ~scale ~verify =
  let duration = Stdlib.max 12.0 (20.0 *. scale) in
  let run detection = Telemetry.run_mode ~seed ~verify ~detection ~duration () in
  let exact = run Config.Exact_polling in
  let sampled = run (Config.Sampled Telemetry.default_rate) in
  (exact, sampled)

let telemetry () =
  let scale = 0.25 in
  let exact, sampled = telemetry_pair ~scale ~verify:Config.Continuous in
  let reduction = Telemetry.reduction ~exact ~sampled in
  Printf.printf
    "exact %d/%d detected ttd=%.2fs %d msgs %d bytes | sampled@%g %d/%d detected ttd=%.2fs %d \
     msgs %d bytes | reduction %.0fx\n"
    exact.Telemetry.o_true_pos exact.Telemetry.o_truth exact.Telemetry.o_ttd
    exact.Telemetry.o_msgs exact.Telemetry.o_bytes Telemetry.default_rate
    sampled.Telemetry.o_true_pos sampled.Telemetry.o_truth sampled.Telemetry.o_ttd
    sampled.Telemetry.o_msgs sampled.Telemetry.o_bytes reduction;
  if exact.Telemetry.o_recall < 1.0 then
    fail "exact baseline missed elephants (recall %.2f)" exact.Telemetry.o_recall;
  if sampled.Telemetry.o_precision < 0.9 then
    fail "sampled precision %.2f < 0.9" sampled.Telemetry.o_precision;
  if sampled.Telemetry.o_recall < 0.9 then
    fail "sampled recall %.2f < 0.9" sampled.Telemetry.o_recall;
  if sampled.Telemetry.o_migrations = 0 then fail "sampled detection triggered no migrations";
  if reduction < 10.0 then fail "channel reduction %.1fx < 10x" reduction;
  if sampled.Telemetry.o_bytes * 10 > exact.Telemetry.o_bytes then
    fail "wire-byte reduction below 10x (%d vs %d)" exact.Telemetry.o_bytes
      sampled.Telemetry.o_bytes;
  List.iter
    (fun (o : Telemetry.outcome) ->
      if o.Telemetry.o_verify_checks = 0 then
        fail "%s run: verifier never checked" o.Telemetry.o_label;
      if o.Telemetry.o_verify_errors > 0 then
        fail "%s run: %d dataplane invariant errors" o.Telemetry.o_label
          o.Telemetry.o_verify_errors)
    [ exact; sampled ];
  (* the rerun, unverified, agrees on everything but the verify counters *)
  let unverified (o : Telemetry.outcome) =
    { o with Telemetry.o_verify_checks = 0; o_verify_errors = 0 }
  in
  let exact2, sampled2 = telemetry_pair ~scale ~verify:Config.Off in
  if compare (unverified exact, unverified sampled) (exact2, sampled2) <> 0 then
    fail "same-seed runs diverged with verification off";
  (* floats as %h hex literals: exact, and the same on every platform *)
  let record (o : Telemetry.outcome) =
    Printf.sprintf "%s %h %d %d %d %h %h %h %d %d %d %d %d\n" o.Telemetry.o_label
      o.Telemetry.o_rate o.Telemetry.o_truth o.Telemetry.o_detected o.Telemetry.o_true_pos
      o.Telemetry.o_precision o.Telemetry.o_recall o.Telemetry.o_ttd o.Telemetry.o_msgs
      o.Telemetry.o_bytes o.Telemetry.o_migrations o.Telemetry.o_verify_checks
      o.Telemetry.o_verify_errors
  in
  [ (Printf.sprintf "scale=%g verify=continuous outcomes" scale,
     md5 (record exact ^ record sampled)) ]

(* ------------------------------------------------------------------ *)
(* isolation: every shed flow is the attacker's own, the victim's p99
   and delivery are unchanged vs the no-attack baseline, the
   per-function breaker held a drained-but-forwarding member, same-seed
   attacked runs with verification on and off are bit-identical (at
   seeds 42 and 7) and the continuously verified one stays
   invariant-clean. *)

let isolation () =
  let scale = 0.5 in
  let p = Isolation.run_pair ~seed ~scale () in
  let b = p.Isolation.baseline and a = p.Isolation.attacked in
  if b.Isolation.victim_launched = 0 then fail "baseline launched no victim flows";
  if a.Isolation.attacker_launched = 0 then fail "flood launched no attacker flows";
  if a.Isolation.attacker_shed = 0 then
    fail "flood at %d flows vs a %d-slot budget shed nothing" a.Isolation.attacker_launched
      Isolation.attacker_pin_budget;
  if a.Isolation.victim_shed > 0 then
    fail "%d victim flows shed under the attacker's flood" a.Isolation.victim_shed;
  if b.Isolation.victim_shed > 0 then
    fail "%d victim flows shed with no attack at all" b.Isolation.victim_shed;
  let p99 (o : Isolation.outcome) =
    match o.Isolation.victim_p99 with Some q -> Printf.sprintf "%.4fs" q | None -> "n/a"
  in
  Printf.printf "victim p99 %s -> %s (delta %.2f%%), delivery %.4f -> %.4f\n" (p99 b) (p99 a)
    (100.0 *. p.Isolation.p99_delta) b.Isolation.victim_delivery a.Isolation.victim_delivery;
  if p.Isolation.p99_delta > Isolation.p99_delta_bound then
    fail "victim p99 moved %.1f%% under the flood (bound %.0f%%)"
      (100.0 *. p.Isolation.p99_delta)
      (100.0 *. Isolation.p99_delta_bound);
  if a.Isolation.victim_delivery < Isolation.delivery_floor then
    fail "victim delivery %.4f under the flood (floor %.2f)" a.Isolation.victim_delivery
      Isolation.delivery_floor;
  if b.Isolation.victim_delivery < Isolation.delivery_floor then
    fail "victim delivery %.4f with no attack (floor %.2f)" b.Isolation.victim_delivery
      Isolation.delivery_floor;
  if a.Isolation.drained_forwarding < 1 then
    fail "no drained-but-forwarding member observed during the gray failure";
  if a.Isolation.quarantines = 0 then fail "control-axis breaker never opened";
  if a.Isolation.data_ejects > 0 then
    fail "data-axis breaker removed %d members from forwarding during a control-plane-only \
          gray failure"
      a.Isolation.data_ejects;
  let run ~seed ~verify = Isolation.run_variant ~attack:true ~verify ~seed ~scale () in
  let digests (o : Isolation.outcome) = (o.Isolation.ledger_digest, o.Isolation.trace_digest) in
  let v = run ~seed ~verify:Config.Continuous in
  agree ~what:"same-seed ledger and trace digests" ~seed ~verified:(digests v)
    ~unverified:(digests a);
  pure ~what:"same-seed ledger and trace digests" ~seed:7 (fun ~seed ~verify ->
      digests (run ~seed ~verify));
  if v.Isolation.verify_checks = 0 then fail "continuous verifier never checked";
  if v.Isolation.verify_errors > 0 then
    fail "%d dataplane invariant errors under the flood" v.Isolation.verify_errors;
  Printf.printf
    "attacker launched=%d shed=%d; drained-forwarding peak=%d; verify checks=%d errors=%d\n"
    a.Isolation.attacker_launched a.Isolation.attacker_shed a.Isolation.drained_forwarding
    v.Isolation.verify_checks v.Isolation.verify_errors;
  let key = Printf.sprintf "scale=%g attack" scale in
  [ (key ^ " ledger", a.Isolation.ledger_digest); (key ^ " trace", a.Isolation.trace_digest) ]

(* ------------------------------------------------------------------ *)
(* model: the analytic OFA model's queue depth and Packet-In latency
   within 15 % of the discrete-event OFA below saturation, blocking
   within 1 % absolute, the sweep same-seed bit-identical; and the
   autoscaler's run under a moderate flash crowd, pinned by digest. *)

let model () =
  let module MC = Model_check in
  let module OV = Overload in
  let scale = 0.5 and multiplier = 5.0 in
  let mc = MC.summary ~seed ~scale () in
  if mc.MC.max_queue_err > 0.15 then
    fail "queue depth error %.3f exceeds 0.15 below saturation" mc.MC.max_queue_err;
  if mc.MC.max_sojourn_err > 0.15 then
    fail "sojourn error %.3f exceeds 0.15 below saturation" mc.MC.max_sojourn_err;
  if mc.MC.max_blocking_err > 0.01 then
    fail "blocking error %.4f exceeds 0.01 absolute" mc.MC.max_blocking_err;
  if mc.MC.digest <> (MC.summary ~seed ~scale ()).MC.digest then
    fail "model-check digest differs across same-seed runs";
  let react = overload_run ~seed ~scale ~multiplier ~elastic:true ~verify:Config.Off in
  Printf.printf "queue err %.1f%%, sojourn err %.1f%%; x%g flash crowd: shed %d, final pool %d\n"
    (100.0 *. mc.MC.max_queue_err) (100.0 *. mc.MC.max_sojourn_err) multiplier react.OV.shed
    react.OV.final_pool;
  let key = Printf.sprintf "scale=%g" scale in
  let reactive = Printf.sprintf "%s x%g reactive" key multiplier in
  [ (key ^ " model-check", mc.MC.digest);
    (reactive ^ " ledger", react.OV.ledger_digest);
    (reactive ^ " trace", react.OV.trace_digest) ]

(* ------------------------------------------------------------------ *)
(* fig12: with migration on, the elephants' final delay falls below
   the migration-off run's, and the table is the same with obs on, as
   is fig11's.  The rendered fig12 table is the digest: it pins the
   large-flow migration queue, which no other smoke's digest reaches. *)

let fig12 () =
  let scale = 0.25 in
  let render fig = Scotch_util.Table_printer.render (Report.to_table fig) in
  let fig = Fig12.run ~seed ~scale () in
  let table = render fig in
  let fig11 = render (Fig11.run ~seed ~scale ()) in
  (* obs observes without steering: the same tables with it on *)
  Scotch_obs.Obs.reset ();
  Scotch_obs.Obs.enable ();
  if render (Fig12.run ~seed ~scale ()) <> table then fail "table differs with obs on";
  if render (Fig11.run ~seed ~scale ()) <> fig11 then fail "fig11 table differs with obs on";
  print_string fig.Report.title;
  print_newline ();
  print_string table;
  let last label = Report.last_y (Report.series_exn fig label) in
  let on = last "migration on" and off = last "migration off" in
  if on >= off then fail "migration did not lower elephant delay (%.3f ms vs %.3f ms)" on off;
  [ (Printf.sprintf "scale=%g table" scale, md5 table) ]

(* ------------------------------------------------------------------ *)

let smokes =
  [ ("resilience", resilience); ("reconcile", reconcile); ("chaos", chaos); ("obs", obs);
    ("overload", overload); ("telemetry", telemetry); ("isolation", isolation);
    ("model", model); ("fig12", fig12) ]

let () =
  let usage () =
    Printf.eprintf "usage: smoke.exe (%s) DIGESTS\n" (String.concat "|" (List.map fst smokes));
    exit 2
  in
  let name, file =
    match Sys.argv with [| _; name; file |] -> (name, file) | _ -> usage ()
  in
  let run = match List.assoc_opt name smokes with Some f -> f | None -> usage () in
  current := name;
  let digests = run () in
  let oc = open_out file in
  List.iter (fun (key, d) -> Printf.fprintf oc "%s seed=%d %s %s\n" name seed key d) digests;
  close_out oc;
  Printf.printf "%s smoke OK\n" name
