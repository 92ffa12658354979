(* The timing gates: the wall-clock budgets a seeded smoke cannot hold,
   because they are wall-clock measurements (every seeded gate lives in
   test/smoke.ml).  `main.exe [--seed N]` measures them, prints one
   verdict line per gate and exits 1 if any failed.

   Each gate runs its two variants as alternating pairs, so load drift
   on the machine hits both alike, and reads the median over the pairs.

   Paper figures come from `scotch_sim all` (or one of its figure
   subcommands); bench/perf is the machine-readable benchmark. *)

open Scotch_experiments

type verdict = { name : string; value : float; bound : float; ok : bool }

let at_most name value bound = { name; value; bound; ok = value <= bound }

let pairs = 11

(* [pairs] alternating runs of [a] then [b], each timed from the same
   compacted heap: the list of ((wall_a, result_a), (wall_b, result_b)). *)
let paired a b =
  let run f =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  List.init pairs (fun _ ->
      let ra = run a in
      (ra, run b))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The observability overhead: the same loaded flash crowd with
   recording off, then on.  Budget <= 10 % with everything enabled.
   20 simulated seconds are about 0.1 s of wall, long enough that the
   pair's difference is recording and not a count of minor collections. *)
let obs_run ~seed ~enabled () =
  let module O = Scotch_obs.Obs in
  O.reset ();
  if enabled then O.enable () else O.disable ();
  let net = Testbed.scotch_net ~seed () in
  let attack = Testbed.attack_source net ~rate:500.0 () in
  let client = Testbed.client_source net ~i:0 ~rate:20.0 () in
  Scotch_workload.Source.start attack;
  Scotch_workload.Source.start client;
  Testbed.run_until net ~until:20.0;
  Scotch_sim.Engine.processed net.Testbed.engine

(* Continuous verification on the resilience smoke workload, against
   the same run with verification off.  The budget is [realtime_frac]:
   verifier wall-seconds per SIMULATED second, the fraction of a real
   controller's wall clock continuous verification would consume on
   this update stream at its real arrival times.  The raw events/s
   loss is printed but not gated: this engine retires an event in well
   under a microsecond, so any per-update verification reads as a large
   fraction of it. *)
let verify_run ~seed ~mode () =
  let module O = Scotch_obs.Obs in
  O.reset ();
  O.disable ();
  let config = { Scotch_core.Config.default with Scotch_core.Config.verify = mode } in
  let o = Resilience.run_outcome ~config ~seed ~scale:0.25 ~kills:2 ~multiplier:5.0 () in
  let engine = o.Resilience.net.Testbed.engine in
  ( Scotch_sim.Engine.processed engine,
    Scotch_sim.Engine.now engine,
    Option.map Scotch_verify.Incremental.stats
      (Option.bind o.Resilience.verify Scotch_verify.Hooks.incremental) )

let timing_gates ~seed =
  let rate n wall = float_of_int n /. wall in
  let obs = paired (obs_run ~seed ~enabled:false) (obs_run ~seed ~enabled:true) in
  List.iter
    (fun ((_, off), (_, on)) ->
      if off <> on then
        failwith (Printf.sprintf "bench: obs pair did unequal work: %d vs %d events" off on))
    obs;
  let (off_wall, events), (on_wall, _) = List.hd obs in
  Printf.printf "obs: %.0f -> %.0f events/s with recording on (first pair, %d events)\n%!"
    (rate events off_wall) (rate events on_wall) events;
  let module C = Scotch_core.Config in
  let verify = paired (verify_run ~seed ~mode:C.Off) (verify_run ~seed ~mode:C.Continuous) in
  let stats = function
    | _, _, Some st -> st
    | _ -> failwith "bench: Continuous run installed no incremental verifier"
  in
  let (vo_wall, (vo_events, _, _)), (vc_wall, ((vc_events, sim_s, _) as vc)) = List.hd verify in
  Printf.printf "verify: %.0f -> %.0f events/s, %d updates over %.1f simulated s (first pair)\n%!"
    (rate vo_events vo_wall) (rate vc_events vc_wall)
    (stats vc).Scotch_verify.Incremental.updates sim_s;
  let realtime ((vo_wall, _), (vc_wall, (_, sim_s, _))) =
    if sim_s > 0.0 then (vc_wall -. vo_wall) /. sim_s else 0.0
  in
  [ at_most "obs.overhead_frac"
      (median (List.map (fun ((off, _), (on, _)) -> (on /. off) -. 1.0) obs))
      0.10;
    at_most "verify.realtime_frac" (median (List.map realtime verify)) 0.15;
    at_most "verify.p99_update_us"
      (median (List.map (fun (_, (_, vc)) -> (stats vc).Scotch_verify.Incremental.p99_us) verify))
      2000.0 ]

let usage_error fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "bench: %s\nusage: main.exe [--seed N]\n" s;
      exit 2)
    fmt

let () =
  let rec parse seed = function
    | [] -> seed
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> parse s rest
      | None -> usage_error "--seed must be an integer, got %S" v)
    | [ "--seed" ] -> usage_error "--seed needs a value"
    | arg :: _ -> usage_error "unexpected argument %s" arg
  in
  let seed = parse 42 (List.tl (Array.to_list Sys.argv)) in
  print_endline "== timing gates ==";
  let verdicts = timing_gates ~seed in
  List.iter
    (fun v ->
      Printf.printf "gate %-22s %10.4g <= %-8g %s\n" v.name v.value v.bound
        (if v.ok then "ok" else "FAILED"))
    verdicts;
  if not (List.for_all (fun v -> v.ok) verdicts) then exit 1
