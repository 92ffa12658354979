(* Tests for Scotch_chaos: exact schedule/repro serialization
   round-trips (the property that makes repro files bit-faithful),
   generator determinism and well-formedness, ddmin shrinker soundness
   (still fails + 1-minimal) and the oracle arithmetic. *)

open Scotch_chaos
open Scotch_faults

(* ------------------------------------------------------------------ *)
(* Generator spec used by the properties: the real testbed shape. *)

let spec ~reconcile ~tenancy =
  { Gen.vswitches = [| 100; 101; 102; 103; 104; 105 |];
    phys = [| 1; 2 |];
    links = [| (1, 1); (1, 2); (1, 3) |];
    tenants = [| 1 |];
    flood_rate = 300.0;
    min_faults = 2;
    max_faults = 6;
    cfg = { Schedule.default_cfg with Schedule.reconcile; tenancy };
    workload = Schedule.default_workload }

let gen_trial =
  QCheck.Gen.(
    map
      (fun (((seed, index), reconcile), tenancy) ->
        Gen.generate (spec ~reconcile ~tenancy) ~seed ~index)
      (pair (pair (pair (int_range 0 10_000) (int_range 0 500)) bool) bool))

let arb_trial =
  QCheck.make ~print:(Format.asprintf "%a" Schedule.pp) gen_trial

(* qcheck: parse ∘ print = id, exactly.  Floats travel as %h hex
   literals, so equality here is structural equality on every field —
   a replayed repro is bit-identical to the run that produced it. *)
let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"schedule parse ∘ print = id" ~count:500 arb_trial (fun s ->
      match Schedule.parse (Schedule.print s) with
      | Ok s' -> Schedule.equal s s'
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* A repro file is outside input: a NaN fault time must fail to parse,
   not reach the engine, since NaN passes every [<] range check. *)
let test_nan_time_rejected () =
  let s = Gen.generate (spec ~reconcile:false ~tenancy:false) ~seed:1 ~index:0 in
  let first = ref true in
  let rec nan_at = function
    | "at" :: _ :: rest when !first ->
      first := false;
      "at" :: "nan" :: rest
    | w :: rest -> w :: nan_at rest
    | [] -> []
  in
  let text =
    String.split_on_char '\n' (Schedule.print s)
    |> List.map (fun l -> String.concat " " (nan_at (String.split_on_char ' ' l)))
    |> String.concat "\n"
  in
  Alcotest.(check bool) "one at replaced" false !first;
  match Schedule.parse text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a schedule with a NaN fault time parsed"

(* qcheck: the repro wrapper (schedule + verdict) round-trips too. *)
let prop_repro_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair gen_trial
          (list_size (int_range 1 3)
             (map
                (fun i ->
                  { Oracle.oracle =
                      (match i mod 6 with
                      | 0 -> Oracle.Verify_clean
                      | 1 -> Oracle.Reconcile_converged
                      | 2 -> Oracle.Bounded_loss
                      | 3 -> Oracle.Breaker_liveness
                      | 4 -> Oracle.Tenant_isolation
                      | _ -> Oracle.Determinism);
                    detail = Printf.sprintf "detail %d" i })
                (int_range 0 100))))
  in
  QCheck.Test.make ~name:"repro parse ∘ print = id" ~count:200 arb
    (fun (s, violations) ->
      let r = Repro.make ~schedule:s violations in
      match Repro.parse (Repro.print r) with
      | Ok r' ->
        Schedule.equal r.Repro.schedule r'.Repro.schedule
        && r.Repro.violated = r'.Repro.violated
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* qcheck: generation is a pure function of (seed, index), and the
   schedules it emits are well-formed — fault count in range, windows
   inside the workload, probabilities legal (the Fault constructors
   would have raised otherwise). *)
let prop_gen_deterministic_well_formed =
  let arb =
    QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 500))
  in
  QCheck.Test.make ~name:"generator deterministic and well-formed" ~count:300 arb
    (fun (seed, index) ->
      let sp = spec ~reconcile:false ~tenancy:false in
      let a = Gen.generate sp ~seed ~index and b = Gen.generate sp ~seed ~index in
      let n = List.length a.Schedule.faults in
      Schedule.equal a b
      && n >= sp.Gen.min_faults && n <= sp.Gen.max_faults
      && List.for_all
           (fun (f : Fault.t) ->
             f.Fault.at >= 0.0
             && f.Fault.at +. f.Fault.duration
                <= (0.8 *. sp.Gen.workload.Schedule.duration) +. 1e-9)
           a.Schedule.faults)

(* ------------------------------------------------------------------ *)
(* Shrinker soundness.  Predicate: "the candidate still contains every
   culprit" — monotone, so the unique 1-minimal sublist is exactly the
   culprit set.  ddmin must land on it, and the result must both still
   fail and be 1-minimal (dropping any single element passes). *)

let prop_ddmin_sound =
  let arb =
    QCheck.make
      ~print:(fun (xs, k) -> Printf.sprintf "(%d elems, %d culprits)" (List.length xs) k)
      QCheck.Gen.(
        pair
          (map
             (fun n -> List.init n (fun i -> i))
             (int_range 1 24))
          (int_range 1 4))
  in
  QCheck.Test.make ~name:"ddmin is sound and 1-minimal" ~count:300 arb
    (fun (xs, k) ->
      let k = min k (List.length xs) in
      (* spread culprits deterministically across the list *)
      let culprits =
        List.filteri (fun i _ -> i mod (List.length xs / k + 1) = 0) xs
      in
      let still_fails l = List.for_all (fun c -> List.mem c l) culprits in
      let minimal, _stats = Shrink.ddmin ~still_fails xs in
      still_fails minimal
      && List.sort compare minimal = List.sort compare culprits
      && List.for_all
           (fun e -> not (still_fails (List.filter (fun x -> x <> e) minimal)))
           minimal)

(* ------------------------------------------------------------------ *)
(* Oracle arithmetic *)

let test_exposure_and_allowance () =
  let w = { Schedule.default_workload with Schedule.duration = 10.0 } in
  let s =
    Schedule.make ~seed:1 ~cfg:Schedule.default_cfg ~workload:w
      [ Fault.ofa_stall ~at:1.0 ~duration:5.0 1 ]
  in
  (* stall weight 2.0 over half the window -> exposure 1.0 *)
  Alcotest.(check (float 1e-9)) "stall exposure" 1.0 (Oracle.exposure s);
  let tol = { Schedule.base_loss = 0.02; exposure_loss = 0.1; max_loss = 0.08 } in
  Alcotest.(check (float 1e-9)) "allowance below cap" 0.07
    (Oracle.allowed_loss tol ~exposure:0.5);
  Alcotest.(check (float 1e-9)) "allowance capped" 0.08
    (Oracle.allowed_loss tol ~exposure:5.0)

let test_oracle_verdicts () =
  let s =
    Schedule.make ~seed:1 ~cfg:Schedule.default_cfg
      ~workload:Schedule.default_workload []
  in
  let clean =
    { Oracle.launched = 100; delivered = 99; verify_errors = 0;
      reconcile = Some { Oracle.converged = true; outstanding = 0 };
      breakers = [ { Oracle.dpid = 100; state = "closed"; demoted = false } ];
      victim_sheds = Some 0; digest = "d" }
  in
  Alcotest.(check int) "clean observation" 0 (List.length (Oracle.check s clean));
  let dirty =
    { clean with
      Oracle.delivered = 10;
      verify_errors = 2;
      reconcile = Some { Oracle.converged = false; outstanding = 3 };
      breakers = [ { Oracle.dpid = 100; state = "open"; demoted = false } ];
      victim_sheds = Some 7 }
  in
  let fired = List.map (fun v -> v.Oracle.oracle) (Oracle.check s dirty) in
  List.iter
    (fun o ->
      Alcotest.(check bool) (Oracle.oracle_name o) true (List.mem o fired))
    [ Oracle.Verify_clean; Oracle.Reconcile_converged; Oracle.Bounded_loss;
      Oracle.Breaker_liveness; Oracle.Tenant_isolation ];
  (* a demoted member may stay ejected *)
  let benched =
    { clean with
      Oracle.breakers = [ { Oracle.dpid = 100; state = "open"; demoted = true } ] }
  in
  Alcotest.(check int) "demoted member tolerated" 0
    (List.length (Oracle.check s benched));
  match
    Oracle.check_determinism ~first:clean ~second:{ clean with Oracle.digest = "e" }
  with
  | Some v -> Alcotest.(check bool) "determinism fires" true (v.Oracle.oracle = Oracle.Determinism)
  | None -> Alcotest.fail "digest mismatch not flagged"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scotch_chaos"
    [ ( "serialization",
        [ QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
          QCheck_alcotest.to_alcotest prop_repro_roundtrip;
          Alcotest.test_case "NaN fault time rejected" `Quick test_nan_time_rejected ] );
      ("generator", [ QCheck_alcotest.to_alcotest prop_gen_deterministic_well_formed ]);
      ("shrinker", [ QCheck_alcotest.to_alcotest prop_ddmin_sound ]);
      ( "oracle",
        [ Alcotest.test_case "exposure and allowance" `Quick test_exposure_and_allowance;
          Alcotest.test_case "verdicts" `Quick test_oracle_verdicts ] ) ]
