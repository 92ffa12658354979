(* The circuit breaker's state machine (lib/elastic/breaker.ml): a
   pure Schmitt-trigger — eject on a sunk EWMA health score, probe in
   half-open after quarantine, readmit only on sustained health.  The
   whole-system behavior (probing a live pool, quarantine wiring) is
   covered by the overload smoke; these tests pin the transitions and
   the hysteresis arithmetic. *)

module B = Scotch_elastic.Breaker
module E = Scotch_elastic.Elastic

(* [B.create ()]'s default round-trip budget; the other parameters
   are constants: alpha 0.3, eject < 0.3, readmit >= 0.7,
   half_open_after 2.0, 3 healthy probes *)
let rtt_budget = 0.02

let state = Alcotest.testable (Fmt.of_to_string (function
    | B.Closed -> "closed" | B.Open -> "open" | B.Half_open -> "half-open"))
    ( = )

let test_config_validation () =
  List.iter
    (fun rtt_budget ->
      Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
          try ignore (B.create ~rtt_budget ()) with Invalid_argument _ ->
            raise (Invalid_argument "")))
    [ 0.0; Float.nan ];
  ignore (B.create ())

let test_healthy_stays_closed () =
  let b = B.create () in
  for i = 1 to 100 do
    (* replies well inside budget: perfect health *)
    match B.observe b ~now:(float_of_int i) (B.Reply (rtt_budget /. 2.0)) with
    | None -> ()
    | Some _ -> Alcotest.fail "healthy member changed membership"
  done;
  Alcotest.check state "still closed" B.Closed (B.state b);
  Alcotest.(check (float 1e-9)) "score pinned at 1" 1.0 (B.score b)

let test_sample_mapping () =
  (* a reply at 2x budget is as bad as a timeout; within budget is
     perfect: check via the score after one observation *)
  let after probe =
    let b = B.create () in
    ignore (B.observe b ~now:0.0 probe);
    B.score b
  in
  Alcotest.(check (float 1e-9)) "timeout sample = 0" (1.0 -. B.ewma_alpha)
    (after B.Timeout);
  Alcotest.(check (float 1e-9)) "2x budget = timeout" (1.0 -. B.ewma_alpha)
    (after (B.Reply (2.0 *. rtt_budget)));
  Alcotest.(check (float 1e-9)) "within budget = perfect" 1.0
    (after (B.Reply rtt_budget))

(* Timeouts decay the score geometrically: 0.7^n with the default
   alpha.  0.7^4 = 0.2401 < 0.3 = first ejection on the 4th. *)
let eject b ~at =
  let r = ref 0 in
  (try
     for i = 0 to 99 do
       match B.observe b ~now:(at +. (0.01 *. float_of_int i)) B.Timeout with
       | Some B.Ejected ->
         r := i;
         raise Exit
       | Some B.Readmitted -> Alcotest.fail "readmitted while degrading"
       | None -> ()
     done
   with Exit -> ());
  !r

let test_timeouts_eject () =
  let b = B.create () in
  Alcotest.(check int) "ejected on the 4th timeout" 3 (eject b ~at:0.0);
  Alcotest.check state "open" B.Open (B.state b);
  Alcotest.(check bool) "score below eject threshold" true
    (B.score b < B.eject_below)

let test_quarantine_then_half_open () =
  let b = B.create () in
  ignore (eject b ~at:0.0);
  (* probes inside the quarantine window leave it open *)
  ignore (B.observe b ~now:1.0 (B.Reply 0.0));
  Alcotest.check state "still quarantined" B.Open (B.state b);
  (* first probe past half_open_after moves to trial *)
  ignore (B.observe b ~now:(0.1 +. B.half_open_after) (B.Reply 0.0));
  Alcotest.check state "half-open" B.Half_open (B.state b)

let test_relapse_restarts_quarantine () =
  let b = B.create () in
  ignore (eject b ~at:0.0);
  ignore (B.observe b ~now:3.0 (B.Reply 0.0));
  Alcotest.check state "half-open" B.Half_open (B.state b);
  (* one bad probe in trial: back to quarantine with a fresh clock *)
  ignore (B.observe b ~now:3.5 B.Timeout);
  Alcotest.check state "relapsed" B.Open (B.state b);
  ignore (B.observe b ~now:(3.5 +. B.half_open_after -. 0.1) (B.Reply 0.0));
  Alcotest.check state "wait restarted, still open" B.Open (B.state b)

let test_sustained_health_readmits () =
  let b = B.create () in
  ignore (eject b ~at:0.0);
  (* trial: the transition probe counts as the 1st healthy one; scores
     climb 0.468 -> 0.628 -> 0.739, crossing readmit_above exactly as
     the streak reaches readmit_probes *)
  let ev1 = B.observe b ~now:3.0 (B.Reply 0.0) in
  let ev2 = B.observe b ~now:3.2 (B.Reply 0.0) in
  Alcotest.(check bool) "no early readmit" true (ev1 = None && ev2 = None);
  (match B.observe b ~now:3.4 (B.Reply 0.0) with
  | Some B.Readmitted -> ()
  | _ -> Alcotest.fail "3rd consecutive healthy probe must readmit");
  Alcotest.check state "closed again" B.Closed (B.state b);
  Alcotest.(check bool) "hysteresis: readmit score above eject band" true
    (B.score b >= B.readmit_above)

(* ------------------------------------------------------------------ *)
(* Tenancy: the share arithmetic the autoscaler's per-tenant views and
   the overlay's select-group split both rest on. *)

module Tenant = Scotch_core.Tenant
module Sched = Scotch_core.Sched

(* qcheck: largest-remainder apportionment conserves capacity — the
   per-tenant allocations always sum to exactly the slot count (no
   slot is lost or minted by the split), every tenant is listed in
   input order, nobody goes below zero, and whenever there are at
   least as many slots as tenants nobody is starved to zero. *)
let prop_apportion_conserves =
  let gen =
    QCheck.Gen.(pair (int_range 0 40) (list_size (int_range 1 6) (int_range 1 9)))
  in
  QCheck.Test.make ~name:"apportion conserves slots" ~count:500 (QCheck.make gen)
    (fun (slots, weights) ->
      let shares = List.mapi (fun i w -> (i, w)) weights in
      let alloc = Tenant.apportion ~slots ~shares in
      List.map fst alloc = List.map fst shares
      && List.fold_left (fun acc (_, c) -> acc + c) 0 alloc = slots
      && List.for_all (fun (_, c) -> c >= 0) alloc
      && (slots < List.length shares || List.for_all (fun (_, c) -> c >= 1) alloc)
      && alloc = Tenant.apportion ~slots ~shares)

(* qcheck: the scheduler's tenant frame conserves total serve
   capacity.  With every tenant holding deep backlog, no serve tick is
   wasted (total served matches the untenanted rate) and each tenant
   receives exactly its weighted fraction of the ticks, within one
   frame position. *)
let prop_frame_shares_conserve =
  QCheck.Test.make ~name:"tenant frame conserves serve capacity" ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_range 2 4) (int_range 1 4)))
    (fun weights ->
      let e = Scotch_sim.Engine.create () in
      let shares = List.mapi (fun i w -> (i, w)) weights in
      let tenants = List.map (fun (i, w) -> Tenant.make ~share:w ~id:i (string_of_int i)) shares in
      let s =
        Sched.create e ~tenants ~rate:100.0 ~overlay_threshold:10_000 ~drop_threshold:20_000
          ~differentiate:true
      in
      let n = List.length shares in
      let served = Array.make n 0 in
      List.iter
        (fun (t, _) ->
          for _ = 1 to 400 do
            Sched.submit_admitted s ~tenant:t (fun () -> served.(t) <- served.(t) + 1)
          done)
        shares;
      Sched.start s;
      Scotch_sim.Engine.run ~until:2.0 e;
      let total_share = List.fold_left (fun acc (_, w) -> acc + w) 0 shares in
      let ticks = Array.fold_left ( + ) 0 served in
      (* conservation: ~200 ticks at R=100 over 2 s, none idled *)
      abs (ticks - 200) <= 1
      && List.for_all
           (fun (t, w) ->
             let expect = ticks * w / total_share in
             abs (served.(t) - expect) <= w)
           shares)

(* qcheck: Schmitt-band hysteresis.  Over any probe sequence the
   breaker's membership events strictly alternate Ejected/Readmitted
   (starting with Ejected); an ejection only fires with the score
   below [eject_below], a readmission only with it at or above
   [readmit_above]; and a score that never pierces the lower threshold
   produces no events at all — hovering inside the band cannot flap
   the pool. *)
let prop_breaker_hysteresis =
  (* (probe, dt): probe 0 = Timeout, 1..10 = Reply at 0.2..2x the rtt
     budget; dt in 0.1..3.0 s so sequences straddle half_open_after *)
  let gen = QCheck.Gen.(list_size (int_range 1 300) (pair (int_range 0 10) (int_range 1 30))) in
  QCheck.Test.make ~name:"breaker hysteresis never flaps inside the band" ~count:300
    (QCheck.make gen)
    (fun steps ->
      let b = B.create () in
      let now = ref 0.0 in
      let min_score = ref (B.score b) in
      let last = ref None in
      let ok = ref true in
      List.iter
        (fun (p, dt) ->
          now := !now +. (float_of_int dt /. 10.0);
          let probe =
            if p = 0 then B.Timeout
            else B.Reply (float_of_int p *. rtt_budget /. 5.0)
          in
          (match B.observe b ~now:!now probe with
          | Some B.Ejected ->
            ok := !ok && !last <> Some B.Ejected && B.score b < B.eject_below;
            last := Some B.Ejected
          | Some B.Readmitted ->
            ok := !ok && !last = Some B.Ejected && B.score b >= B.readmit_above;
            last := Some B.Readmitted
          | None -> ());
          min_score := Float.min !min_score (B.score b))
        steps;
      if !min_score >= B.eject_below then !ok && !last = None else !ok)

let test_elastic_config_validation () =
  let net = Scotch_experiments.Testbed.scotch_net () in
  let app = net.Scotch_experiments.Testbed.app in
  let bad c =
    Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
        try ignore (E.create ~config:c app) with Invalid_argument _ ->
          raise (Invalid_argument ""))
  in
  bad { E.default_config with E.low_water = 0.8 } (* not below high_water 0.8 *);
  bad { E.default_config with E.min_pool = 5; max_pool = 4 };
  bad { E.default_config with E.low_water = Float.nan };
  bad { E.default_config with E.rtt_budget = 0.0 };
  bad { E.default_config with E.rtt_budget = Float.nan };
  bad { E.default_config with E.vswitch_capacity = 0.0 };
  bad { E.default_config with E.vswitch_capacity = Float.nan };
  bad { E.default_config with E.sustain_down = 0 };
  bad { E.default_config with E.tenant_shares = [ (1, 0) ] };
  bad { E.default_config with E.tenant_shares = [ (1, 2); (2, 1); (1, 3) ] };
  ignore (E.create app)

let () =
  Alcotest.run "scotch_elastic"
    [ ( "breaker",
        [ Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "healthy stays closed" `Quick test_healthy_stays_closed;
          Alcotest.test_case "sample mapping" `Quick test_sample_mapping;
          Alcotest.test_case "timeouts eject" `Quick test_timeouts_eject;
          Alcotest.test_case "quarantine then half-open" `Quick test_quarantine_then_half_open;
          Alcotest.test_case "relapse restarts quarantine" `Quick
            test_relapse_restarts_quarantine;
          Alcotest.test_case "sustained health readmits" `Quick
            test_sustained_health_readmits;
          QCheck_alcotest.to_alcotest prop_breaker_hysteresis ] );
      ( "elastic",
        [ Alcotest.test_case "config validation" `Quick test_elastic_config_validation ] );
      ( "tenancy",
        [ QCheck_alcotest.to_alcotest prop_apportion_conserves;
          QCheck_alcotest.to_alcotest prop_frame_shares_conserve ] ) ]
