(* scotch-sim: command-line driver regenerating every figure of the
   Scotch paper (CoNEXT 2014) from the simulator, plus the ablations.

   Each experiment subcommand prints the figure's rows/series; `all`
   runs everything.  Use --scale to shrink/grow simulated durations and
   --seed for a different deterministic run. *)

open Cmdliner
open Scotch_experiments

type spec = {
  name : string;
  doc : string;
  run : seed:int -> scale:float -> Report.figure;
}

let specs =
  [ { name = "fig3";
      doc = "Client flow failure fraction vs attack rate (HP / Pica8 / OVS)";
      run = (fun ~seed ~scale -> Fig3.run ~seed ~scale ()) };
    { name = "fig4";
      doc = "Control-path profiling: Packet-In = insertion = success rate";
      run = (fun ~seed ~scale -> Fig4.run ~seed ~scale ()) };
    { name = "fig9";
      doc = "Maximum flow-rule insertion rate (Pica8)";
      run = (fun ~seed ~scale -> Fig9.run ~seed ~scale ()) };
    { name = "fig10";
      doc = "Data-path loss vs insertion rate at 500/1000/2000 pps";
      run = (fun ~seed ~scale -> Fig10.run ~seed ~scale ()) };
    { name = "fig11";
      doc = "Ingress-port differentiation isolates the attacked port";
      run = (fun ~seed ~scale -> Fig11.run ~seed ~scale ()) };
    { name = "fig12";
      doc = "Large-flow migration off the overlay";
      run = (fun ~seed ~scale -> Fig12.run ~seed ~scale ()) };
    { name = "fig13";
      doc = "Control-plane capacity scaling with the vswitch pool";
      run = (fun ~seed ~scale -> Fig13.run ~seed ~scale ()) };
    { name = "fig14";
      doc = "Extra one-way delay of the overlay relay";
      run = (fun ~seed ~scale -> Fig14.run ~seed ~scale ()) };
    { name = "fig15";
      doc = "Trace-driven flash crowd: Scotch vs plain reactive";
      run = (fun ~seed ~scale -> Fig15.run ~seed ~scale ()) };
    { name = "exp-fabric";
      doc = "Multi-rack fabric: destination-side switch protection";
      run = (fun ~seed ~scale -> Exp_fabric.run ~seed ~scale ()) };
    { name = "ablation-lb";
      doc = "Group-table load balancing vs a single uplink vswitch";
      run = (fun ~seed ~scale -> Ablation.run_lb ~seed ~scale ()) };
    { name = "ablation-dedicated-port";
      doc = "Dedicated controller data port vs Scotch vs plain reactive";
      run = (fun ~seed ~scale -> Ablation.run_dedicated_port ~seed ~scale ()) };
    { name = "ablation-withdrawal";
      doc = "Overlay activation/withdrawal life cycle";
      run = (fun ~seed ~scale -> Ablation.run_withdrawal ~seed ~scale ()) };
    { name = "telemetry";
      doc =
        "Sampled flow telemetry vs exact stats polling: detection precision/recall, \
         time-to-detect and control-channel reduction per sampling rate";
      run = (fun ~seed ~scale -> Telemetry.run ~seed ~scale ()) };
    { name = "overload";
      doc =
        "Graceful degradation under overload: 3x flash crowd + gray failure, admission \
         control, breaker-guarded pool and the elastic autoscaler vs a static pool";
      run = (fun ~seed ~scale -> Overload.run ~seed ~scale ()) };
    { name = "isolation";
      doc =
        "Multi-tenant blast-radius isolation: a spoofed-SYN tenant flood vs per-tenant \
         budgets, reserved shares and tenant-scoped eviction; the victim tenant's p99 and \
         delivery must not move";
      run = (fun ~seed ~scale -> Isolation.run ~seed ~scale ()) } ]

(* Reject bad values at the parse layer so every experiment sees sane
   inputs: a negative rate or NaN scale is a usage error (exit code 2,
   one-line message), not a simulation that silently misbehaves. *)
let pos_float what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ -> Error (Printf.sprintf "%s must be a finite positive number, got %s" what s)
    | None -> Error (Printf.sprintf "invalid %s %S, expected a number" what s)
  in
  Arg.conv' ~docv:"X" (parse, Format.pp_print_float)

(* Probability-style arguments: [0, 1). *)
let unit_float what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0.0 && v < 1.0 -> Ok v
    | Some _ -> Error (Printf.sprintf "%s must be in [0,1), got %s" what s)
    | None -> Error (Printf.sprintf "invalid %s %S, expected a number" what s)
  in
  Arg.conv' ~docv:"P" (parse, Format.pp_print_float)

(* Counts: at least 1 for [pos_int], at least 0 for [nat_int]. *)
let int_from lo what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some _ -> Error (Printf.sprintf "%s must be at least %d, got %s" what lo s)
    | None -> Error (Printf.sprintf "invalid %s %S, expected an integer" what s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let pos_int = int_from 1
let nat_int = int_from 0

let seed_arg =
  let doc = "PRNG seed; runs are bit-for-bit reproducible for a given seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc =
    "Duration scale factor: < 1 shrinks simulated time (faster, noisier), > 1 grows it."
  in
  Arg.(value & opt (pos_float "--scale") 1.0 & info [ "scale" ] ~docv:"SCALE" ~doc)

let csv_arg =
  let doc = "Also emit the series as CSV on stdout after the table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let metrics_arg =
  let doc =
    "Enable observability and write a Prometheus text snapshot of the metrics registry to \
     $(docv) after the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Enable observability and write a Chrome trace-event JSON (chrome://tracing, Perfetto) of \
     the run's virtual-time spans to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Reset the default registry/tracer before the run (handles resolve at
   net construction, so the reset must come first), enable recording
   when an export was requested, dump afterwards. *)
let with_obs ~metrics ~trace f =
  let module O = Scotch_obs.Obs in
  O.reset ();
  if metrics <> None || trace <> None then O.enable ();
  f ();
  (match metrics with
  | None -> ()
  | Some path ->
    write_file path (Scotch_obs.Registry.to_prometheus (O.registry ()));
    Printf.printf "metrics: %d series -> %s\n" (Scotch_obs.Registry.size (O.registry ())) path);
  match trace with
  | None -> ()
  | Some path ->
    let tr = O.tracer () in
    write_file path (Scotch_obs.Trace.to_chrome_json tr);
    Printf.printf "trace: %d events (%d offered, %d evicted) digest=%s -> %s\n"
      (Scotch_obs.Trace.length tr) (Scotch_obs.Trace.emitted tr) (Scotch_obs.Trace.dropped tr)
      (Scotch_obs.Trace.digest tr) path

let emit_csv (fig : Report.figure) =
  Printf.printf "# csv %s\n" fig.Report.id;
  List.iter
    (fun (s : Report.series) ->
      List.iter
        (fun (x, y) -> Printf.printf "%s,%s,%.6g,%.6g\n" fig.Report.id s.Report.label x y)
        s.Report.points)
    fig.Report.series

let print_figure ~csv fig =
  Report.print fig;
  if csv then emit_csv fig

let run_one spec seed scale csv metrics trace =
  with_obs ~metrics ~trace (fun () -> print_figure ~csv (spec.run ~seed ~scale))

let cmd_of_spec spec =
  let term =
    Term.(const (run_one spec) $ seed_arg $ scale_arg $ csv_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v (Cmd.info spec.name ~doc:spec.doc) term

(* resilience gets its own command (not a bare spec) for the reliable
   control-channel knobs. *)
let resilience_doc =
  "Failure recovery: vswitch kills mid flash crowd, heartbeat failover (S5.6).  With \
   --reconcile, installs go through the reliable layer (intent store, barrier-acked \
   transactions, anti-entropy reconciler) and the ledger gains convergence metrics."

let resilience_cmd =
  let reconcile_arg =
    let doc =
      "Route installs through the reliable control-channel layer and run the reconciler."
    in
    Arg.(value & flag & info [ "reconcile" ] ~doc)
  in
  let drop_arg =
    let doc =
      "Also drop this fraction of messages on every control channel during the flash window \
       (plus one OFA stall) — the reconciliation stress storm.  0 disables."
    in
    Arg.(value & opt (unit_float "--drop-p") 0.0 & info [ "drop-p" ] ~docv:"P" ~doc)
  in
  let run seed scale csv reconcile drop_p metrics trace =
    with_obs ~metrics ~trace (fun () ->
        print_figure ~csv (Resilience.run ~seed ~scale ~reconcile ~drop_p ()))
  in
  Cmd.v (Cmd.info "resilience" ~doc:resilience_doc)
    Term.(
      const run $ seed_arg $ scale_arg $ csv_arg $ reconcile_arg $ drop_arg $ metrics_arg
      $ trace_arg)

let all_cmd =
  let doc = "Run every experiment in sequence (the full paper reproduction)." in
  let run seed scale csv metrics trace =
    with_obs ~metrics ~trace (fun () ->
        List.iter (fun spec -> print_figure ~csv (spec.run ~seed ~scale)) specs;
        print_figure ~csv (Resilience.run ~seed ~scale ()))
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ csv_arg $ metrics_arg $ trace_arg)

(* A purpose-built observability demo: short flash crowd with recording
   forced on, then a human-readable dump of every non-zero metric and
   the tracer's stats.  --metrics/--trace export the same data through
   [with_obs]. *)
let obs_cmd =
  let doc =
    "Observability demo: run a short flash crowd against the Scotch testbed with metrics and \
     tracing enabled, then print every non-zero metric and the trace summary.  Use --metrics \
     and --trace to export the Prometheus snapshot and Chrome trace JSON."
  in
  let duration_arg =
    let doc = "Simulated seconds to run." in
    Arg.(value & opt (pos_float "--duration") 4.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let rate_arg =
    let doc = "Attack (flash-crowd) rate in new flows per second." in
    Arg.(value & opt (pos_float "--rate") 400.0 & info [ "rate" ] ~docv:"FPS" ~doc)
  in
  let run seed duration rate metrics trace =
    let module O = Scotch_obs.Obs in
    with_obs ~metrics ~trace @@ fun () ->
    O.enable ();
    let net = Testbed.scotch_net ~seed () in
    let client = Testbed.client_source net ~i:0 ~rate:20.0 () in
    let attack = Testbed.attack_source net ~rate () in
    Scotch_workload.Source.start client;
    Scotch_workload.Source.start attack;
    Testbed.run_until net ~until:duration;
    let reg = O.registry () in
    let live =
      List.filter
        (fun (s : Scotch_obs.Registry.sample) -> s.Scotch_obs.Registry.s_value <> 0.0)
        (Scotch_obs.Registry.samples reg)
    in
    Printf.printf "metric%40s value\n" "";
    List.iter
      (fun (s : Scotch_obs.Registry.sample) ->
        let labels =
          match s.Scotch_obs.Registry.s_labels with
          | [] -> ""
          | kvs ->
            "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"
        in
        Printf.printf "%-46s %.6g\n"
          (s.Scotch_obs.Registry.s_name ^ labels)
          s.Scotch_obs.Registry.s_value)
      live;
    let tr = O.tracer () in
    Printf.printf "\n%d non-zero series (%d registered); trace: %d events (%d offered, %d \
                   evicted) digest=%s\n"
      (List.length live) (Scotch_obs.Registry.size reg) (Scotch_obs.Trace.length tr)
      (Scotch_obs.Trace.emitted tr) (Scotch_obs.Trace.dropped tr) (Scotch_obs.Trace.digest tr)
  in
  Cmd.v (Cmd.info "obs" ~doc)
    Term.(const run $ seed_arg $ duration_arg $ rate_arg $ metrics_arg $ trace_arg)

let verify_net_cmd =
  let doc =
    "Verify the dataplane of every experiment topology continuously while the scenario's \
     workload runs: the incremental verifier re-checks every rule/group/liveness delta at the \
     install chokepoint for forwarding loops, blackholes, shadowed rules, group sanity, \
     table-miss coverage, overlay symmetry and intent divergence, and audits itself against \
     full rescans.  Exit codes: 0 clean, 1 violations (or audit mismatches), 2 usage."
  in
  let scenario_arg =
    let doc = "Only lint the named scenario(s); repeatable.  Default: all." in
    Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let print_diag d =
    let d_ts =
      match d.Scotch_verify.Diagnostic.first_at with
      | Some t -> Printf.sprintf " [first at t=%.3fs]" t
      | None -> ""
    in
    Printf.printf "  %s%s\n" (Scotch_verify.Diagnostic.to_string d) d_ts
  in
  let run seed scenario_names =
    let only = match scenario_names with [] -> None | ns -> Some ns in
    let results =
      try Lint.watch_all ~seed ?only ()
      with Invalid_argument msg ->
        Printf.eprintf "verify-net: %s (known: %s)\n" msg (String.concat ", " Lint.names);
        exit 2
    in
    let bad =
      List.fold_left
        (fun acc (name, (w : Lint.watch_report)) ->
          let verdict =
            if w.Lint.w_diagnostics = [] && w.Lint.w_equiv_mismatches = 0 then "clean"
            else
              Printf.sprintf "%d diagnostic(s), %d audit mismatch(es)"
                (List.length w.Lint.w_diagnostics) w.Lint.w_equiv_mismatches
          in
          Printf.printf
            "%-22s %-12s updates=%d classes=%d/%d p50=%.0fus p99=%.0fus audits=%d\n" name
            verdict w.Lint.w_updates w.Lint.w_classes_touched w.Lint.w_class_count
            w.Lint.w_p50_us w.Lint.w_p99_us w.Lint.w_equiv_checks;
          List.iter print_diag w.Lint.w_diagnostics;
          acc + List.length w.Lint.w_diagnostics + w.Lint.w_equiv_mismatches)
        0 results
    in
    if bad > 0 then begin
      Printf.printf "verify-net: %d problem(s) across %d scenario(s)\n" bad
        (List.length results);
      exit 1
    end
    else Printf.printf "verify-net: all %d scenario(s) clean\n" (List.length results)
  in
  Cmd.v (Cmd.info "verify-net" ~doc) Term.(const run $ seed_arg $ scenario_arg)

(* model-check gets its own command (not a bare spec) for the
   tolerance gate: it exits 1 when model and simulation disagree, so it
   doubles as a CI check. *)
let model_check_doc =
  "Analytic OFA queueing model vs simulation: sweep offered load over a standalone OFA pool \
   and compare predicted vs simulated pin-queue depth, Packet-In latency and blocking.  Exits \
   1 when any sub-saturation relative error exceeds --tolerance, 2 on usage errors."

let model_check_cmd =
  let tolerance_arg =
    let doc =
      "Acceptance band: fail (exit 1) when the relative error of queue depth or latency at any \
       sub-saturation offered load exceeds $(docv)."
    in
    Arg.(value & opt (pos_float "--tolerance") 0.15 & info [ "tolerance" ] ~docv:"ERR" ~doc)
  in
  let run seed scale csv tolerance metrics trace =
    with_obs ~metrics ~trace (fun () ->
        let o = Model_check.summary ~seed ~scale () in
        print_figure ~csv (Model_check.figure_of o);
        Printf.printf
          "model-check: below saturation queue err=%.1f%% sojourn err=%.1f%%; blocking (abs) \
           err=%.2f%%; digest=%s\n"
          (100.0 *. o.Model_check.max_queue_err)
          (100.0 *. o.Model_check.max_sojourn_err)
          (100.0 *. o.Model_check.max_blocking_err)
          o.Model_check.digest;
        if o.Model_check.max_queue_err > tolerance || o.Model_check.max_sojourn_err > tolerance
        then begin
          Printf.printf "model-check: FAIL — error exceeds tolerance %.1f%%\n"
            (100.0 *. tolerance);
          exit 1
        end)
  in
  Cmd.v (Cmd.info "model-check" ~doc:model_check_doc)
    Term.(
      const run $ seed_arg $ scale_arg $ csv_arg $ tolerance_arg $ metrics_arg $ trace_arg)

(* The chaos search: its own command for the budgets, the canary and
   replay.  Exit codes double as the CI contract: 0 = every trial
   clean (or canary caught + shrunk, or replay reproduced), 1 = an
   oracle violation survived (or the canary/replay failed), 2 usage. *)
let chaos_cmd =
  let doc =
    "Deterministic chaos search: seeded random fault schedules over the full fault \
     vocabulary, executed on the evaluation network under a flash-crowd workload and judged \
     by the end-to-end safety oracles (dataplane verification, reconciler convergence, \
     bounded flow loss, breaker liveness, tenant isolation, same-seed determinism).  The \
     first violating schedule is delta-debugged to a minimal failing subsequence and written \
     as a replayable repro (--repro).  --canary runs a deliberately broken configuration the \
     shrinker must catch; --replay re-executes a repro file and checks it reproduces its \
     recorded verdict."
  in
  let schedules_arg =
    let doc = "Number of random schedules to explore." in
    Arg.(value & opt (pos_int "--schedules") 50 & info [ "schedules" ] ~docv:"N" ~doc)
  in
  let time_budget_arg =
    let doc = "Stop exploring after this many CPU seconds (the schedule budget still caps)." in
    Arg.(
      value
      & opt (some (pos_float "--time-budget")) None
      & info [ "time-budget" ] ~docv:"SECONDS" ~doc)
  in
  let repro_arg =
    let doc = "Write the minimized repro of the first violation to $(docv)." in
    Arg.(value & opt (some string) None & info [ "repro" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc = "Re-execute the repro file $(docv) and verify it reproduces its verdict." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let canary_arg =
    let doc =
      "Run the canary: a zero-tolerance schedule that must violate Bounded_loss and shrink \
       to at most 3 faults — a self-test that the search can still catch and minimize bugs."
    in
    Arg.(value & flag & info [ "canary" ] ~doc)
  in
  let reconcile_arg =
    let doc = "Explore schedules with the reliable control-channel layer on." in
    Arg.(value & flag & info [ "reconcile" ] ~doc)
  in
  let tenancy_arg =
    let doc = "Explore schedules on the two-tenant deployment (adds tenant-flood faults)." in
    Arg.(value & flag & info [ "tenancy" ] ~doc)
  in
  let det_arg =
    let doc = "Double-run every $(docv)-th trial and compare digests (0 disables)." in
    Arg.(
      value & opt (nat_int "--determinism-every") 7 & info [ "determinism-every" ] ~docv:"N" ~doc)
  in
  let module Ch = Scotch_chaos in
  let print_violations vs =
    List.iter
      (fun v -> Format.printf "  %a@." Ch.Oracle.pp_violation v)
      (vs : Ch.Oracle.violation list)
  in
  let do_replay path =
    match Chaos.replay_file path with
    | Error e ->
      Printf.eprintf "chaos --replay: %s\n" e;
      exit 2
    | Ok (r, vs) ->
      Printf.printf "chaos: replayed %s (%d fault(s), seed %d)\n" path
        (List.length r.Ch.Repro.schedule.Ch.Schedule.faults)
        r.Ch.Repro.schedule.Ch.Schedule.seed;
      print_violations vs;
      if Chaos.replay_faithful r vs then begin
        Printf.printf "chaos: verdict reproduced (%s)\n"
          (String.concat ", " (List.map Ch.Oracle.oracle_name r.Ch.Repro.violated));
        exit 0
      end
      else begin
        Printf.printf "chaos: verdict NOT reproduced\n";
        exit 1
      end
  in
  let do_canary ~seed ~repro_path =
    let o = Chaos.run_canary ~seed ?repro_path ~log:print_endline () in
    match o.Ch.Search.shrunk with
    | Some s ->
      let original = List.length s.Ch.Search.original.Ch.Schedule.faults in
      let minimal = List.length s.Ch.Search.minimal.Ch.Schedule.faults in
      Printf.printf "chaos: canary violated and shrunk %d -> %d fault(s) in %d runs\n"
        original minimal s.Ch.Search.shrink_tests;
      print_violations s.Ch.Search.minimal_violations;
      if minimal > 3 then begin
        Printf.printf "chaos: canary FAILED — minimum %d faults exceeds 3\n" minimal;
        exit 1
      end;
      Option.iter (fun p -> do_replay p) s.Ch.Search.repro_path;
      exit 0
    | None ->
      Printf.printf
        "chaos: canary FAILED — the broken configuration produced no shrinkable violation\n";
      exit 1
  in
  let run seed schedules time_budget repro_path replay canary reconcile tenancy det =
    match replay with
    | Some path -> do_replay path
    | None ->
      if canary then do_canary ~seed ~repro_path
      else begin
        let cfg = { Ch.Schedule.default_cfg with Ch.Schedule.reconcile; tenancy } in
        let spec = Chaos.default_spec ~cfg () in
        let o =
          Chaos.search ~seed ~schedules ~spec ?time_budget ~determinism_every:det
            ?repro_path ~log:print_endline ()
        in
        Printf.printf
          "chaos: %d/%d schedule(s) explored (%d fault(s) injected, %d determinism \
           double-run(s), %.1f s cpu%s)\n"
          o.Ch.Search.explored schedules o.Ch.Search.faults_injected
          o.Ch.Search.determinism_checks o.Ch.Search.elapsed
          (if o.Ch.Search.budget_exhausted then ", time budget hit" else "");
        Printf.printf "chaos: oracle pass rate %.4f (%d violating schedule(s))\n"
          (Ch.Search.pass_rate o) o.Ch.Search.violated_schedules;
        List.iter
          (fun (index, vs) ->
            Printf.printf "chaos: trial %d:\n" index;
            print_violations vs)
          o.Ch.Search.violations;
        (match o.Ch.Search.shrunk with
        | Some s ->
          Printf.printf "chaos: first violation shrunk %d -> %d fault(s)%s\n"
            (List.length s.Ch.Search.original.Ch.Schedule.faults)
            (List.length s.Ch.Search.minimal.Ch.Schedule.faults)
            (match s.Ch.Search.repro_path with
            | Some p -> Printf.sprintf "; repro: %s" p
            | None -> "")
        | None -> ());
        exit (if o.Ch.Search.violated_schedules = 0 then 0 else 1)
      end
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ seed_arg $ schedules_arg $ time_budget_arg $ repro_arg $ replay_arg
      $ canary_arg $ reconcile_arg $ tenancy_arg $ det_arg)

let list_cmd =
  let doc = "List experiments with the paper artifact each regenerates." in
  let run () =
    List.iter
      (fun (name, doc) -> Printf.printf "%-24s %s\n" name doc)
      (List.map (fun spec -> (spec.name, spec.doc)) specs
      @ [ ("resilience", resilience_doc); ("model-check", model_check_doc) ])
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let main =
  let doc = "Scotch (CoNEXT 2014) reproduction: elastic SDN control-plane scaling" in
  let info = Cmd.info "scotch-sim" ~version:"1.0.0" ~doc in
  Cmd.group info
    (list_cmd :: all_cmd :: verify_net_cmd :: resilience_cmd :: model_check_cmd :: obs_cmd
    :: chaos_cmd :: List.map cmd_of_spec specs)

(* Usage errors — unknown subcommands or flags, malformed or
   out-of-range values — exit 2 uniformly (cmdliner's defaults split
   them across 124/125); uncaught exceptions stay 125. *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok ()) | Ok `Version | Ok `Help -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
