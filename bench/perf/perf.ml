(* The repository benchmark: four workloads, end-to-end metrics measured
   with obs off, one traced pass per workload for the per-layer cost
   table.  See README.md in this directory.

     perf.exe [--workload NAME]... [--seed N] [--reps N | --seconds S]
              [--trace 0|1] [--scale X] [--json FILE] [--spans FILE]
              [--spec BENCHMARK.json]
     perf.exe compare --base FILE... --change FILE...
     perf.exe spec

   With exactly one --workload, the last line of stdout is one JSON
   object: {"correct","attempted","failed","metrics"}, the metrics being
   the end-to-end ones with --trace 0 and the per-layer ones with
   --trace 1. *)

module W = Workload
module M = Metric
module E = Scotch_sim.Engine
module Obs = Scotch_obs.Obs

let clock = Unix.gettimeofday
let setup_samples = 5
let min_timed_reps = 3
let run_seconds = 15

(* ------------------------------------------------------------------ *)
(* One run *)

type rep = {
  wall_s : float;  (** host seconds inside [Engine.run] *)
  slices : float array;  (** the same, split at every [slice_s] of simulated time *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  live_mb : float;  (** live heap the network holds at run end *)
  counters : (string * float) list;
  digest : string;
}

let word_bytes = float_of_int (Sys.word_size / 8)

(* On a shared machine the host's speed drops by up to 2x in bursts of
   0.5-2.5 s, shorter than one rep.  Each rep therefore reads the clock
   at every [slice_s] of simulated time (an engine event that only reads
   the clock).  Every rep does the same work in a slice and noise only
   adds time, so a run's wall time sums each slice's fastest rep. *)
let slice_s = 0.25

(* Obs.reset drops the registry's pull closures, which would otherwise
   pin every earlier network; the full major GC makes each run start
   from the same heap. *)
let run_once ~root (w : W.t) ~seed ~sim_s ~obs ~verify ~probe ~label =
  let span name f = Spans.with_span ~parent:root ~cat:w.W.name name (fun _ -> f ()) in
  Obs.reset ();
  if obs then Obs.enable () else Obs.disable ();
  Gc.full_major ();
  let live0 = (Gc.quick_stat ()).Gc.live_words in
  let net = span "setup" (fun () -> w.W.build ~seed ~sim_s ~verify) in
  let peaks = if probe then Some (Layers.install_probe net) else None in
  let marks = ref [] in
  let (_ : unit -> unit) =
    E.every net.W.engine ~period:slice_s (fun () -> marks := clock () :: !marks)
  in
  let g0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let t0 = clock () in
  span label (fun () -> E.run ~until:sim_s net.W.engine);
  let t1 = clock () in
  let words1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  Gc.full_major ();
  let live1 = (Gc.quick_stat ()).Gc.live_words in
  let bounds = Array.of_list ((t0 :: List.rev !marks) @ [ t1 ]) in
  let slices = Array.init (Array.length bounds - 1) (fun i -> bounds.(i + 1) -. bounds.(i)) in
  let probe_ticks =
    List.length !marks + Option.fold ~none:0 ~some:(fun p -> p.Layers.ticks) peaks
  in
  let counters = span "harvest" (fun () -> W.harvest net ~sim_s ~probe_ticks) in
  let rep =
    { wall_s = t1 -. t0; slices; minor_words = words1 -. words0;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      live_mb = float_of_int (live1 - live0) *. word_bytes /. 1e6; counters;
      digest = W.digest counters }
  in
  (net, peaks, rep)

(* [setup_samples] samples of the time one build takes, each after an
   obs reset and a full major GC.  Builds take microseconds, so a sample
   averages consecutive builds over at least [setup_sample_s].  A round
   of samples precedes every rep, so their median spans the whole run. *)
let setup_sample_s = 0.005

let setup_build (w : W.t) ~seed ~sim_s =
  ignore (Sys.opaque_identity (w.W.build ~seed ~sim_s ~verify:w.W.verify))

let measure_setup (w : W.t) ~seed ~sim_s =
  let build () = setup_build w ~seed ~sim_s in
  let sample () =
    Obs.reset ();
    Obs.disable ();
    Gc.full_major ();
    let t0 = clock () in
    let n = ref 0 in
    while
      build ();
      incr n;
      clock () -. t0 < setup_sample_s
    do
      ()
    done;
    (clock () -. t0) /. float_of_int !n
  in
  List.init setup_samples (fun _ -> sample ())

(* ------------------------------------------------------------------ *)
(* The traced pass *)

type traced = {
  t_rep : rep;
  peaks : Layers.peaks;
  decision_p99_ms : float;
  verify_p50_us : float;
  verify_p99_us : float;
  engine_ns : float;
  tables : Layers.table_costs;
  packet_in_ns : float;
  verify_off_wall : float option;
}

let traced_pass ~root (w : W.t) ~seed ~sim_s =
  let net, peaks, t_rep =
    run_once ~root w ~seed ~sim_s ~obs:true ~verify:w.W.verify ~probe:true ~label:"traced run"
  in
  let peaks = Option.get peaks in
  let replay name f = Spans.with_span ~parent:root ~cat:"replay" name (fun _ -> f ()) in
  let decision_p99_ms =
    match net.W.app with
    | Some app -> 1e3 *. Option.value (W.Scotch.decision_latency_quantile app 0.99) ~default:0.0
    | None -> 0.0
  in
  let verify_p50_us, verify_p99_us =
    match Option.bind net.W.hooks W.Hooks.incremental with
    | Some i ->
      let st = Scotch_verify.Incremental.stats i in
      (st.Scotch_verify.Incremental.p50_us, st.Scotch_verify.Incremental.p99_us)
    | None -> (0.0, 0.0)
  in
  let engine_ns = replay "replay engine" (fun () -> Layers.engine_ns ~prefill:peaks.Layers.pending) in
  let tables = Layers.table_costs ~span:root net in
  let packet_in_ns = replay "replay scotch.packet_in" (fun () -> Layers.packet_in_ns net) in
  Obs.disable ();
  Obs.reset ();
  let verify_off_wall =
    if w.W.verify then
      let _, _, off =
        run_once ~root w ~seed ~sim_s ~obs:false ~verify:false ~probe:false ~label:"run verify off"
      in
      Some off.wall_s
    else None
  in
  { t_rep; peaks; decision_p99_ms; verify_p50_us; verify_p99_us; engine_ns; tables; packet_in_ns;
    verify_off_wall }

(* ------------------------------------------------------------------ *)
(* Metric values *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A run's wall time: per slice, the fastest rep; summed.  Every rep has
   the same slices, since they are cut at fixed simulated times. *)
let slice_min_sum = function
  | [] -> 0.0
  | r0 :: _ as reps ->
    let total = ref 0.0 in
    for i = 0 to Array.length r0.slices - 1 do
      total := !total +. List.fold_left (fun acc r -> Float.min acc r.slices.(i)) infinity reps
    done;
    !total

let counter counters k = Option.value (List.assoc_opt k counters) ~default:0.0

let simulated_values ~sim_s counters =
  let c = counter counters in
  [ ("client_fail_frac", ratio (c "client.failed") (c "client.launched"));
    ("flow_setup_p50_ms", c "client.setup_p50_ms");
    ("flow_setup_p99_ms", c "client.setup_p99_ms");
    ("flow_setup_n", c "client.delivered");
    ("flows_served_per_s", c "dest.flows_seen" /. sim_s);
    ("rule_insert_rate", c "churn.insert_rate") ]

(* Exact-stats records carried: each poll costs a request unit and a
   reply unit besides its records; the final poll's reply is still in
   flight at T. *)
let stats_records ~sim_s c =
  let interval = Scotch_core.Config.default.Scotch_core.Config.stats_poll_interval in
  let polls = Float.of_int (int_of_float (sim_s /. interval)) in
  Float.max 0.0 (c "channel.exact_units" -. (((2.0 *. polls) -. 1.0) *. c "overlay.vswitches"))

let layer_values ~sim_s ~(rep : rep) ~wall_s (t : traced) =
  let c = counter rep.counters in
  let per_s k = c k /. sim_s in
  let wall_ns = wall_s *. 1e9 in
  let share ns ops = ratio (ns *. ops) wall_ns in
  let records = stats_records ~sim_s c in
  let tc = t.tables in
  let verify_share =
    match t.verify_off_wall with Some off -> 1.0 -. ratio off wall_s | None -> 0.0
  in
  let shares =
    [ ("engine.share", share t.engine_ns (c "engine.events"));
      ("flow_table.lookup_share", share tc.Layers.lookup_ns (c "switch.rx"));
      ("flow_table.insert_share",
        share (tc.Layers.insert_ns +. tc.Layers.sweep_ns_per_rule) (c "ofa.flow_mods_handled"));
      ("flow_table.stats_share", share tc.Layers.stats_ns_per_rule records);
      ("of_wire.share", share tc.Layers.encode_ns_per_record records);
      ("scotch.packet_in_share", share t.packet_in_ns (c "controller.packet_ins"));
      ("verify.share", verify_share) ]
  in
  let p = t.peaks in
  let i = float_of_int in
  shares
  @ [ ("engine.events_per_sim_s", per_s "engine.events");
      ("engine.events_per_s", ratio (c "engine.events") wall_s);
      ("engine.words_per_event", ratio rep.minor_words (c "engine.events"));
      ("engine.pending_peak", i p.Layers.pending);
      ("engine.ns_per_event", t.engine_ns);
      ("link.packets_per_sim_s", per_s "link.delivered");
      ("link.drop_frac", ratio (c "link.dropped") (c "link.delivered" +. c "link.dropped"));
      ("link.queue_peak", i p.Layers.link_queue);
      ("switch.rx_per_sim_s", per_s "switch.rx");
      ("switch.drop_frac", ratio (c "switch.dropped") (c "switch.rx"));
      ("switch.punt_frac", ratio (c "ofa.pin_submitted") (c "switch.rx"));
      ("flow_table.rules_present", c "table.rules");
      ("flow_table.stale_frac", 1.0 -. ratio (c "table.live") (c "table.rules"));
      ("flow_table.insert_failures", c "table.insert_failures");
      ("flow_table.lookup_ns", tc.Layers.lookup_ns);
      ("flow_table.insert_ns", tc.Layers.insert_ns);
      ("flow_table.sweep_ns_per_rule", tc.Layers.sweep_ns_per_rule);
      ("flow_table.stats_ns_per_rule", tc.Layers.stats_ns_per_rule);
      ("ofa.pin_submitted_per_sim_s", per_s "ofa.pin_submitted");
      ("ofa.pin_drop_frac", ratio (c "ofa.pin_dropped") (c "ofa.pin_submitted"));
      ("ofa.flow_mod_drop_frac",
        ratio (c "ofa.flow_mods_dropped") (c "ofa.flow_mods_handled" +. c "ofa.flow_mods_dropped"));
      ("ofa.pin_queue_peak", i p.Layers.pin_queue);
      ("ofa.msg_queue_peak", i p.Layers.msg_queue);
      ("controller.packet_ins_per_sim_s", per_s "controller.packet_ins");
      ("controller.flow_mods_per_sim_s", per_s "controller.flow_mods");
      ("controller.expired_requests", c "controller.expired_requests");
      ("controller.pending_peak", i p.Layers.ctrl_pending);
      ("scotch.flows_seen_per_sim_s", per_s "scotch.flows_seen");
      ("scotch.overlay_frac", ratio (c "scotch.flows_overlay") (c "scotch.flows_seen"));
      ("scotch.shed_frac", ratio (c "scotch.flows_dropped") (c "scotch.flows_seen"));
      ("scotch.migrations", c "scotch.migrations");
      ("scotch.decision_p99_ms", t.decision_p99_ms);
      ("scotch.stats_records_per_sim_s", records /. sim_s);
      ("scotch.packet_in_ns", t.packet_in_ns);
      ("sched.ingress_backlog_peak", i p.Layers.ingress_backlog);
      ("sched.shed_total", c "sched.shed_total");
      ("flow_info_db.entries", c "flow_info_db.entries");
      ("of_wire.bytes_per_sim_s", (c "channel.exact_bytes" +. c "channel.sampled_bytes") /. sim_s);
      ("of_wire.encode_ns_per_record", tc.Layers.encode_ns_per_record);
      ("verify.updates_per_sim_s", per_s "verify.updates");
      ("verify.classes_touched_per_update", ratio (c "verify.classes_touched") (c "verify.updates"));
      ("verify.p50_update_us", t.verify_p50_us);
      ("verify.p99_update_us", t.verify_p99_us);
      ("verify.equiv_mismatches", c "verify.equiv_mismatches");
      ("verify.errors", c "verify.errors");
      ("workload.flows_launched_per_sim_s", per_s "workload.launched");
      ("workload.packets_sent_per_sim_s", per_s "workload.packets_sent");
      ("host.packets_received_per_sim_s", per_s "host.received");
      ("gc.minor_collections_per_sim_s", i rep.minor_collections /. sim_s);
      ("gc.major_collections_per_sim_s", i rep.major_collections /. sim_s);
      ("gc.promoted_words_per_sim_s", rep.promoted_words /. sim_s);
      ("trace.overhead_frac", ratio t.t_rep.wall_s wall_s -. 1.0);
      ("unattributed_share", 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares) ]

(* Attach each computed value to its table entry; a name computed but
   not declared, or declared but not computed, is a bug in this file. *)
let against_table tier values =
  let declared = M.of_tier tier in
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun m -> m.M.name = k) declared) then
        failwith (Printf.sprintf "metric %s is computed but not in the metric table" k))
    values;
  List.map
    (fun m ->
      match List.assoc_opt m.M.name values with
      | Some v -> (m, v)
      | None -> failwith (Printf.sprintf "metric %s is declared but not computed" m.M.name))
    declared

(* ------------------------------------------------------------------ *)
(* One workload *)

type result = {
  workload : W.t;
  sim_s : float;
  runs : int;
  failed : int;
  digest : string;
  floors : (string * bool) list;
  e2e : (M.t * (float * float list)) list;  (** value, and every sample: set-up or rep *)
  simulated : (M.t * float) list;
  layers : (M.t * float) list;  (** empty without a traced pass *)
}

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable reps : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable scale : float;
  mutable json : string option;
  mutable spans : string option;
  mutable spec : string option;
}

let measure opts (w : W.t) =
  let sim_s = w.W.sim_s *. opts.scale and seed = opts.seed in
  Spans.with_span ~cat:w.W.name ("workload " ^ w.W.name) (fun root ->
      setup_build w ~seed ~sim_s (* untimed warm-up *);
      let setup = ref [] in
      let setup_round () =
        setup :=
          Spans.with_span ~parent:root ~cat:w.W.name "setup builds" (fun _ ->
              measure_setup w ~seed ~sim_s)
          @ !setup
      in
      let runs = ref 0 and failed = ref 0 and reference = ref None and floors = ref [] in
      (* A run fails on an exception, a digest differing from the first
         run's, or (at full length) a missed paper-claim floor. *)
      let attempt label f =
        incr runs;
        match f () with
        | exception e ->
          incr failed;
          Printf.eprintf "perf: %s %s raised %s\n%!" w.W.name label (Printexc.to_string e);
          None
        | (rep : rep), extra ->
          let sim = simulated_values ~sim_s rep.counters in
          let get k = match List.assoc_opt k sim with Some v -> v | None -> counter rep.counters k in
          floors := if opts.scale >= 1.0 then w.W.floors get else [];
          let digest_ok =
            match !reference with
            | None -> reference := Some rep.digest; true
            | Some d -> d = rep.digest
          in
          if not digest_ok then
            Printf.eprintf "perf: %s %s digest %s differs from the first run's\n%!" w.W.name label
              rep.digest;
          if (not digest_ok) || List.exists (fun (_, ok) -> not ok) !floors then incr failed;
          Some (rep, extra)
      in
      let reps = ref [] in
      let t0 = clock () in
      let more () =
        match opts.seconds with
        | None -> !runs < opts.reps
        | Some s -> !runs < min_timed_reps || clock () -. t0 < s
      in
      while more () do
        setup_round ();
        let label = Printf.sprintf "run %d" (!runs + 1) in
        Option.iter
          (fun (rep, ()) -> reps := rep :: !reps)
          (attempt label (fun () ->
               let _, _, rep =
                 run_once ~root w ~seed ~sim_s ~obs:false ~verify:w.W.verify ~probe:false ~label
               in
               (rep, ())))
      done;
      let reps = List.rev !reps in
      let run_wall = slice_min_sum reps in
      let by_wall = List.sort (fun a b -> compare a.wall_s b.wall_s) reps in
      let median_rep = List.nth_opt by_wall (List.length by_wall / 2) in
      let traced =
        match median_rep with
        | Some _ when opts.trace ->
          Option.map snd
            (attempt "traced pass" (fun () ->
                 let t = traced_pass ~root w ~seed ~sim_s in
                 (t.t_rep, t)))
        | _ -> None
      in
      let per_rep f = List.map f reps in
      let summary samples = (median samples, samples) in
      let e2e =
        against_table M.End_to_end
          [ ("setup_s", summary !setup);
            ("wall_per_sim_s", (run_wall /. sim_s, per_rep (fun r -> r.wall_s /. sim_s)));
            ("alloc_mwords_per_sim_s", summary (per_rep (fun r -> r.minor_words /. sim_s /. 1e6)));
            ("live_heap_mb", summary (per_rep (fun r -> r.live_mb))) ]
      in
      let simulated, layers =
        match median_rep with
        | None -> ([], [])
        | Some rep ->
          ( against_table M.Simulated (simulated_values ~sim_s rep.counters),
            match traced with
            | Some t -> against_table M.Layer (layer_values ~sim_s ~rep ~wall_s:run_wall t)
            | None -> [] )
      in
      { workload = w; sim_s; runs = !runs; failed = !failed;
        digest = Option.value !reference ~default:"-"; floors = !floors; e2e; simulated; layers })

(* ------------------------------------------------------------------ *)
(* Output *)

let applies (r : result) m = M.applies m ~churn:r.workload.W.churn ~verify:r.workload.W.verify

let print_result opts (r : result) =
  let w = r.workload in
  Printf.printf "\n== %s: T = %g s simulated, seed %d, %d runs (%d failed) ==\n   %s\n" w.W.name
    r.sim_s opts.seed r.runs r.failed w.W.why;
  Printf.printf "   %-36s %-13s %14s %14s %14s %4s\n" "end-to-end (host, obs off)" "unit" "value"
    "min" "max" "n";
  List.iter
    (fun ((m : M.t), (v, vs)) ->
      Printf.printf "   %-36s %-13s %14.6g %14.6g %14.6g %4d\n" m.M.name m.M.unit_ v
        (List.fold_left Float.min Float.infinity vs)
        (List.fold_left Float.max Float.neg_infinity vs)
        (List.length vs))
    r.e2e;
  let table title rows =
    let rows = List.filter (fun (m, _) -> applies r m) rows in
    if rows <> [] then begin
      Printf.printf "   %s\n" title;
      List.iter
        (fun ((m : M.t), v) -> Printf.printf "   %-36s %-13s %14.6g\n" m.M.name m.M.unit_ v)
        rows
    end
  in
  table "end-to-end (simulated, deterministic per seed)" r.simulated;
  table "per-layer (traced pass; shares are of untraced wall time)" r.layers;
  if r.floors <> [] then
    Printf.printf "   floors: %s\n"
      (String.concat ", "
         (List.map (fun (f, ok) -> Printf.sprintf "%s %s" f (if ok then "ok" else "FAILED")) r.floors));
  Printf.printf "   digest %s\n%!" r.digest

let metric_json (m : M.t) v = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.M.unit_) ]

let result_json opts results =
  let workload (r : result) =
    Json.Obj
      [ ("name", Json.Str r.workload.W.name); ("sim_s", Json.Num r.sim_s);
        ("runs", Json.Num (float_of_int r.runs)); ("failed", Json.Num (float_of_int r.failed));
        ("digest", Json.Str r.digest);
        ("end_to_end",
          Json.Obj
            (List.map
               (fun ((m : M.t), (v, vs)) ->
                 ( m.M.name,
                   Json.Obj
                     [ ("unit", Json.Str m.M.unit_); ("value", Json.Num v);
                       ("n", Json.Num (float_of_int (List.length vs)));
                       ("values", Json.Arr (List.map (fun v -> Json.Num v) vs)) ] ))
               r.e2e));
        ("simulated", Json.Obj (List.map (fun ((m : M.t), v) -> (m.M.name, Json.Num v)) r.simulated));
        ("per_layer", Json.Obj (List.map (fun ((m : M.t), v) -> (m.M.name, Json.Num v)) r.layers)) ]
  in
  Json.Obj
    [ ("bench", Json.Str "scotch-perf"); ("seed", Json.Num (float_of_int opts.seed));
      ("scale", Json.Num opts.scale); ("workloads", Json.Arr (List.map workload results)) ]

(* The last stdout line of a single-workload run. *)
let contract_line opts (r : result) =
  let metrics =
    if opts.trace then
      List.map (fun ((m : M.t), v) -> (m.M.name, metric_json m v)) (r.simulated @ r.layers)
    else List.map (fun ((m : M.t), (v, _)) -> (m.M.name, metric_json m v)) r.e2e
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (r.failed = 0 && r.runs > 0));
         ("attempted", Json.Num (float_of_int (max 1 r.runs)));
         ("failed", Json.Num (float_of_int (if r.runs = 0 then 1 else r.failed)));
         ("metrics", Json.Obj metrics) ])

(* BENCHMARK.json, generated from the tables: `perf.exe spec`. *)
let spec_json () =
  let entry (m : M.t) =
    Json.Obj
      ([ ("name", Json.Str m.M.name); ("unit", Json.Str m.M.unit_);
         ("better", Json.Str (M.better_string m.M.better)) ]
      @ if m.M.tier = M.End_to_end then [ ("bound", Json.Num m.M.bound) ] else [])
  in
  Json.Obj
    [ ("command", Json.Arr [ Json.Str "bash"; Json.Str "bench/perf/run.sh" ]);
      ("paths", Json.Arr [ Json.Str "bench/perf" ]);
      ("run_seconds", Json.Num (float_of_int run_seconds));
      ("workloads",
        Json.Arr
          (List.map
             (fun (w : W.t) -> Json.Obj [ ("name", Json.Str w.W.name); ("why", Json.Str w.W.why) ])
             W.all));
      ("end_to_end", Json.Arr (List.map entry (M.of_tier M.End_to_end)));
      ("per_layer", Json.Arr (List.map entry (M.of_tier M.Simulated @ M.of_tier M.Layer))) ]

(* One array element per line, so the committed file diffs cleanly. *)
let spec_text () =
  match spec_json () with
  | Json.Obj fields ->
    let field (k, v) =
      match v with
      | Json.Arr items when List.length items > 2 ->
        Printf.sprintf "  \"%s\": [\n%s\n  ]" k
          (String.concat ",\n" (List.map (fun x -> "    " ^ Json.to_string x) items))
      | v -> Printf.sprintf "  \"%s\": %s" k (Json.to_string v)
    in
    "{\n" ^ String.concat ",\n" (List.map field fields) ^ "\n}\n"
  | _ -> assert false

(* Every printed metric went through [against_table], so a spec file
   equal to the table's rendering declares exactly the names, units,
   directions and bounds each workload printed. *)
let check_spec path =
  let ok = Json.of_file path = spec_json () in
  if not ok then
    Printf.eprintf "perf: %s differs from `perf.exe spec`; regenerate it with that command\n" path;
  ok

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "usage: perf.exe [--workload NAME]... [--seed N] [--reps N | --seconds S] [--trace 0|1]\n\
  \                [--scale X] [--json FILE] [--spans FILE] [--spec BENCHMARK.json]\n\
  \       perf.exe compare --base FILE... --change FILE...\n\
  \       perf.exe spec"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

let number conv what v = match conv v with Some x -> x | None -> die "%s: bad value %S" what v

let parse_run args =
  let o =
    { names = []; seed = 42; reps = 5; seconds = None; trace = true; scale = 1.0; json = None;
      spans = None; spec = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      if W.find v = None then
        die "unknown workload %s (one of: %s)" v
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
      o.names <- o.names @ [ v ];
      go rest
    | "--seed" :: v :: rest -> o.seed <- number int_of_string_opt "--seed" v; go rest
    | "--reps" :: v :: rest ->
      o.reps <- number int_of_string_opt "--reps" v;
      if o.reps < 1 then die "--reps must be at least 1";
      go rest
    | "--seconds" :: v :: rest -> o.seconds <- Some (number float_of_string_opt "--seconds" v); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--scale" :: v :: rest ->
      o.scale <- number float_of_string_opt "--scale" v;
      if not (o.scale > 0.0) then die "--scale must be positive";
      go rest
    | "--json" :: v :: rest -> o.json <- Some v; go rest
    | "--spans" :: v :: rest -> o.spans <- Some v; go rest
    | "--spec" :: v :: rest -> o.spec <- Some v; go rest
    | a :: _ -> die "unexpected argument %s" a
  in
  go args;
  o

let parse_compare args =
  let rec go base change = function
    | [] -> (List.rev base, List.rev change)
    | "--base" :: f :: rest -> go (f :: base) change rest
    | "--change" :: f :: rest -> go base (f :: change) rest
    | a :: _ -> die "compare: unexpected argument %s" a
  in
  go [] [] args

let run_bench o =
  let workloads =
    match o.names with [] -> W.all | names -> List.filter_map W.find names
  in
  let results = List.map (measure o) workloads in
  List.iter (print_result o) results;
  let total = List.fold_left (fun acc r -> acc + r.runs) 0 results in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 results in
  Printf.printf "\nruns_total %d\nruns_failed %d\n" total failed;
  Option.iter
    (fun f ->
      let oc = open_out f in
      output_string oc (Json.to_string (result_json o results));
      output_char oc '\n';
      close_out oc)
    o.json;
  Option.iter Spans.write o.spans;
  let spec_ok = Option.fold ~none:true ~some:check_spec o.spec in
  (match results with [ r ] -> print_endline (contract_line o r) | _ -> ());
  if failed = 0 && spec_ok then 0 else 1

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: args ->
      let base, change = parse_compare args in
      Compare.run ~base ~change
    | [ "spec" ] -> print_string (spec_text ()); 0
    | args -> run_bench (parse_run args)
  in
  exit code
