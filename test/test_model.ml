(* The analytic OFA model (lib/model): parameter validation, the
   textbook anchors the solver must hit exactly, a differential check
   of the embedded-chain solver against the closed-form M/M/1/K, and
   qcheck properties (monotonicity in offered load, probability
   ranges, flow balance, saturation and light-traffic limits).  The
   model-vs-OFA-sim comparison lives in the model smoke
   (test/smoke.ml). *)

module M = Scotch_model.Ofa_model

let prm ?(rate = 90.0) ?(service_rate = 100.0) ?(capacity = 50) () =
  { M.rate; service_rate; capacity }

let check_close what ~tol expect got =
  Alcotest.(check (float tol)) what expect got

(* ---------------- validation ---------------- *)

let test_params_validation () =
  let bad p =
    Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
        try M.check_params p with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  bad (prm ~rate:(-1.0) ());
  bad (prm ~rate:Float.nan ());
  bad (prm ~rate:Float.infinity ());
  bad (prm ~service_rate:0.0 ());
  bad (prm ~service_rate:(-5.0) ());
  bad (prm ~capacity:0 ());
  M.check_params (prm ());
  M.check_params (prm ~rate:0.0 ())

(* ---------------- textbook anchors ---------------- *)

(* M/D/1 at rho = 0.9 with a deep waiting room: Lq = rho^2 / (2(1-rho))
   = 4.05, Wq = Lq / lambda (blocking is negligible at K = 500). *)
let test_md1_anchor () =
  let p = M.evaluate ~service:M.Deterministic (prm ~capacity:500 ()) in
  check_close "Lq" ~tol:1e-3 4.05 p.M.queue_len;
  check_close "Wq" ~tol:1e-5 0.045 p.M.wait;
  check_close "utilization" ~tol:1e-6 0.9 p.M.utilization;
  check_close "blocking ~ 0" ~tol:1e-9 0.0 p.M.blocking

(* Full saturation: at rho = 10 the queue pins at capacity, the server
   never idles and blocking tends to 1 - 1/rho. *)
let test_saturation_limit () =
  let p = M.evaluate ~service:M.Deterministic (prm ~rate:1000.0 ~capacity:50 ()) in
  check_close "throughput = mu" ~tol:1e-3 100.0 p.M.throughput;
  check_close "blocking = 1 - 1/rho" ~tol:1e-3 0.9 p.M.blocking;
  Alcotest.(check bool) "system nearly full" true (p.M.system_len >= 0.9 *. 51.0)

(* Light traffic: sojourn collapses to the bare service time. *)
let test_light_traffic () =
  let p = M.evaluate ~service:M.Deterministic (prm ~rate:1.0 ()) in
  Alcotest.(check bool) "W ~ 1/mu" true
    (p.M.sojourn >= 0.01 && p.M.sojourn < 0.0102);
  let idle = M.evaluate (prm ~rate:0.0 ()) in
  check_close "empty at rate 0" ~tol:1e-12 0.0 idle.M.queue_len;
  check_close "sojourn 1/mu at rate 0" ~tol:1e-12 0.01 idle.M.sojourn

(* ---------------- qcheck properties ---------------- *)

(* Random parameter generator spanning light load to deep overload. *)
let gen_params =
  QCheck.Gen.(
    map
      (fun ((l, m), k) ->
        { M.rate = float_of_int l; service_rate = float_of_int m; capacity = k })
      (pair (pair (int_range 0 400) (int_range 1 200)) (int_range 1 120)))

(* Solver under Exponential service == closed-form M/M/1/K.  Blocking
   and utilization compare absolutely (near-zero blocking is
   cancellation-prone); lengths and times relatively with a floor.
   The 1e-4 band absorbs the O(1/rho^2) residual of the deep-overload
   closed form at its rho = 200 handover. *)
let print_params p =
  Printf.sprintf "{rate=%g; service_rate=%g; capacity=%d}" p.M.rate p.M.service_rate p.M.capacity

let prop_exponential_matches_mm1k =
  QCheck.Test.make ~name:"embedded chain matches closed-form M/M/1/K" ~count:300
    (QCheck.make ~print:print_params gen_params) (fun p ->
      let a = M.evaluate ~service:M.Exponential p in
      let b = M.mm1k p in
      let rel x y = Float.abs (x -. y) /. Float.max (Float.max (Float.abs x) (Float.abs y)) 1e-6 in
      Float.abs (a.M.blocking -. b.M.blocking) < 1e-4
      && Float.abs (a.M.utilization -. b.M.utilization) < 1e-4
      && rel a.M.queue_len b.M.queue_len < 1e-4
      && rel a.M.system_len b.M.system_len < 1e-4
      && rel a.M.sojourn b.M.sojourn < 1e-4)

(* Probabilities stay probabilities and every output is finite and
   non-negative, for both service laws. *)
let prop_ranges =
  QCheck.Test.make ~name:"predictions are finite, non-negative, in range" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_params bool)) (fun (p, det) ->
      let service = if det then M.Deterministic else M.Exponential in
      let r = M.evaluate ~service p in
      let fin x = Float.is_finite x && x >= 0.0 in
      fin r.M.blocking && r.M.blocking <= 1.0
      && fin r.M.utilization && r.M.utilization <= 1.0
      && fin r.M.queue_len
      && r.M.queue_len <= float_of_int p.M.capacity +. 1e-9
      && fin r.M.system_len && fin r.M.throughput && fin r.M.wait && fin r.M.sojourn
      && r.M.sojourn +. 1e-12 >= 1.0 /. p.M.service_rate)

(* Flow balance: completions happen exactly when the server is busy,
   so throughput = mu * utilization = lambda * (1 - blocking). *)
let prop_flow_balance =
  QCheck.Test.make ~name:"flow balance lambda(1-B) = mu(1-p0)" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_params bool)) (fun (p, det) ->
      let service = if det then M.Deterministic else M.Exponential in
      let r = M.evaluate ~service p in
      let lhs = p.M.rate *. (1.0 -. r.M.blocking) in
      let rhs = p.M.service_rate *. r.M.utilization in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (Float.max lhs rhs)
      && Float.abs (r.M.throughput -. lhs)
         <= 1e-6 *. Float.max 1.0 lhs)

(* More offered load never shortens the queue, the wait or the
   blocking (same mu and K; lambda' > lambda). *)
let prop_monotone_in_load =
  let gen = QCheck.Gen.(pair gen_params (int_range 1 200)) in
  QCheck.Test.make ~name:"queue, wait and blocking monotone in offered load" ~count:300
    (QCheck.make gen) (fun (p, extra) ->
      let hi = { p with M.rate = p.M.rate +. float_of_int extra } in
      let a = M.evaluate ~service:M.Deterministic p in
      let b = M.evaluate ~service:M.Deterministic hi in
      let slack = 1e-7 in
      b.M.queue_len +. slack >= a.M.queue_len
      && b.M.wait +. slack >= a.M.wait
      && b.M.blocking +. slack >= a.M.blocking
      && b.M.utilization +. slack >= a.M.utilization)

let () =
  Alcotest.run "scotch_model"
    [ ( "validation",
        [ Alcotest.test_case "params" `Quick test_params_validation ] );
      ( "anchors",
        [ Alcotest.test_case "M/D/1 at rho 0.9" `Quick test_md1_anchor;
          Alcotest.test_case "saturation limit" `Quick test_saturation_limit;
          Alcotest.test_case "light traffic" `Quick test_light_traffic ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_exponential_matches_mm1k;
          QCheck_alcotest.to_alcotest prop_ranges;
          QCheck_alcotest.to_alcotest prop_flow_balance;
          QCheck_alcotest.to_alcotest prop_monotone_in_load ] ) ]
