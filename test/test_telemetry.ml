(* Unit and property tests for Scotch_telemetry: the Space-Saving
   sketch's guarantees, the inverse-probability estimator's algebra and
   confidence bounds, the sampler's duty filtering and windowing, and
   the two properties the subsystem's credibility rests on —
   Horvitz–Thompson unbiasedness (scaled counts converge to the truth
   as the sampling rate approaches 1) and same-seed determinism
   (byte-identical reports and digests across two runs). *)

open Scotch_packet
open Scotch_telemetry

let key i =
  Flow_key.make
    ~ip_src:(Ipv4_addr.of_int (0x0A000000 + i))
    ~ip_dst:(Ipv4_addr.make 10 0 0 200)
    ~proto:6 ~l4_src:(1024 + i) ~l4_dst:80 ()

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Sketch *)

let test_sketch_exact_under_capacity () =
  let s = Sketch.create ~capacity:8 in
  for i = 0 to 3 do
    for _ = 1 to i + 1 do
      Sketch.touch s (key i)
    done
  done;
  for i = 0 to 3 do
    match Sketch.count s (key i) with
    | Some (c, err) ->
      Alcotest.(check int) "exact count" (i + 1) c;
      Alcotest.(check int) "no inherited error" 0 err
    | None -> Alcotest.fail "tracked key missing"
  done;
  (* heaviest first *)
  match Sketch.entries s with
  | e :: _ ->
    Alcotest.(check bool) "top key" true (Flow_key.equal e.Sketch.e_key (key 3));
    Alcotest.(check int) "top count" 4 e.Sketch.e_count
  | [] -> Alcotest.fail "empty entries"

let test_sketch_capacity_bound () =
  let s = Sketch.create ~capacity:4 in
  for i = 0 to 99 do
    Sketch.touch s (key i)
  done;
  Alcotest.(check bool) "bounded" true (List.length (Sketch.entries s) <= 4)

let test_sketch_heavy_hitter_survives () =
  (* one elephant among churning mice: Space-Saving never evicts the
     max-count entry, so the elephant must stay in the sketch *)
  let s = Sketch.create ~capacity:4 in
  for round = 1 to 50 do
    Sketch.touch s (key 0);
    Sketch.touch s (key 0);
    Sketch.touch s (key round) (* a fresh mouse each round *)
  done;
  let entries = Sketch.entries s in
  Alcotest.(check bool) "elephant present" true
    (List.exists (fun e -> Flow_key.equal e.Sketch.e_key (key 0)) entries);
  (* Space-Saving overestimates: the reported count is >= the truth *)
  (match Sketch.count s (key 0) with
  | Some (c, _) -> Alcotest.(check bool) "no undercount" true (c >= 100)
  | None -> Alcotest.fail "elephant evicted")

let test_sketch_clear () =
  let s = Sketch.create ~capacity:4 in
  Sketch.touch s (key 1);
  Sketch.clear s;
  Alcotest.(check int) "cleared" 0 (List.length (Sketch.entries s))

(* ------------------------------------------------------------------ *)
(* Estimator *)

let test_estimator_identity_at_rate_one () =
  check_float "scaled at rate 1" 42.0 (Estimator.scaled ~rate:1.0 42)

let test_estimator_rejects_bad_rate () =
  Alcotest.check_raises "rate 0" (Invalid_argument "Estimator.scaled: rate must be in (0,1]")
    (fun () -> ignore (Estimator.scaled ~rate:0.0 1));
  Alcotest.check_raises "rate > 1" (Invalid_argument "Estimator.scaled: rate must be in (0,1]")
    (fun () -> ignore (Estimator.scaled ~rate:1.5 1));
  Alcotest.check_raises "sampler rate 0"
    (Invalid_argument "Sampler.create: rate must be in (0,1]") (fun () ->
      ignore (Sampler.create ~seed:1 ~dpid:1 ~rate:0.0 ()));
  Alcotest.check_raises "sketch capacity"
    (Invalid_argument "Sketch.create: capacity must be positive") (fun () ->
      ignore (Sketch.create ~capacity:0))

let test_estimator_interval_brackets () =
  let rate = 0.01 in
  let c = 25 in
  let est = Estimator.scaled ~rate c in
  let lo, hi = Estimator.interval ~rate c in
  Alcotest.(check bool) "lo <= est" true (lo <= est);
  Alcotest.(check bool) "est <= hi" true (est <= hi);
  Alcotest.(check bool) "lo >= 0" true (lo >= 0.0);
  check_float "rate_lower over 1 s agrees" lo (Estimator.rate_lower ~rate ~window:1.0 c);
  check_float "rate_lower over 2 s halves it" (lo /. 2.0) (Estimator.rate_lower ~rate ~window:2.0 c)

let test_estimator_rate_lower_monotone () =
  let rate = 0.01 and window = 1.0 in
  let prev = ref neg_infinity in
  for c = 1 to 60 do
    let l = Estimator.rate_lower ~rate ~window c in
    Alcotest.(check bool) "monotone in count" true (l >= !prev);
    prev := l
  done

let test_estimator_empty_window () =
  check_float "empty window" 0.0 (Estimator.rate_lower ~rate:0.5 ~window:0.0 9)

(* ------------------------------------------------------------------ *)
(* Sampler *)

let test_sampler_duty_filter () =
  let s = Sampler.create ~seed:7 ~dpid:100 ~rate:1.0 () in
  Sampler.set_enabled s true;
  Sampler.set_duty_uplinks s [ 3; 5 ];
  Alcotest.(check bool) "on duty" true (Sampler.on_duty s ~tunnel_id:(Some 3));
  Alcotest.(check bool) "off duty" false (Sampler.on_duty s ~tunnel_id:(Some 4));
  Alcotest.(check bool) "no tunnel" false (Sampler.on_duty s ~tunnel_id:None);
  Sampler.offer s ~tunnel_id:(Some 3) (fun () -> key 1);
  Sampler.offer s ~tunnel_id:(Some 4) (fun () -> key 2);
  Sampler.offer s ~tunnel_id:None (fun () -> key 3);
  Alcotest.(check int) "only duty packets seen" 1 (Sampler.seen s);
  Alcotest.(check int) "rate-1 samples all duty" 1 (Sampler.sampled s)

let test_sampler_disabled_draws_nothing () =
  let s = Sampler.create ~seed:7 ~dpid:100 ~rate:1.0 () in
  Sampler.set_enabled s false;
  Sampler.offer s ~tunnel_id:(Some 1) (fun () -> key 1);
  Alcotest.(check int) "nothing seen" 0 (Sampler.seen s);
  Alcotest.(check int) "nothing sampled" 0 (Sampler.sampled s)

let test_sampler_window_resets () =
  let s = Sampler.create ~seed:7 ~dpid:100 ~rate:1.0 () in
  Sampler.set_enabled s true;
  for _ = 1 to 5 do
    Sampler.offer s ~tunnel_id:None (fun () -> key 1)
  done;
  let r1 = Sampler.report s ~now:1.0 in
  Alcotest.(check int) "window seen" 5 r1.Sampler.r_seen;
  Alcotest.(check int) "window records" 1 (List.length r1.Sampler.r_records);
  let r2 = Sampler.report s ~now:2.0 in
  Alcotest.(check int) "drained" 0 r2.Sampler.r_seen;
  Alcotest.(check int) "sketch drained" 0 (List.length r2.Sampler.r_records);
  Alcotest.(check int) "lifetime survives drain" 5 (Sampler.seen s);
  Alcotest.(check int) "two reports chained" 2 (Sampler.reports s)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Offer [n] packets of one flow at [rate] to a sampler seeded
   [seed]; the sampled count. *)
let sampled_count ~seed ~n ~rate =
  let s = Sampler.create ~seed ~dpid:100 ~rate () in
  Sampler.set_enabled s true;
  let k = key 1 in
  for _ = 1 to n do
    Sampler.offer s ~tunnel_id:None (fun () -> k)
  done;
  Sampler.sampled s

(* Does the truth [n] land inside the estimator's own interval stretched
   to twice its distance from the scaled estimate on each side (z=1.645
   doubled: a z=3.29, 99.9% interval)? *)
let brackets ~rate ~n c =
  let est = Estimator.scaled ~rate c and truth = float_of_int n in
  let lo = Estimator.rate_lower ~rate ~window:1.0 c and hi = snd (Estimator.interval ~rate c) in
  est -. (2.0 *. (est -. lo)) <= truth && truth <= est +. (2.0 *. (hi -. est))

(* The unbiasedness/convergence pair: at rate 1 the estimate is exact,
   and below it the 99.9% interval covers the truth at its nominal
   level (the interval width shrinks to 0 as rate -> 1).  A 99.9%
   interval misses about once in a thousand draws, so coverage is
   checked on one fixed grid, not per random case: seeds 1-1000 x
   n in {500, 1000, 2000, 4124, 5000} x rates {0.1, 0.5}, at most 0.1%
   of them missed.  (54, 4124, 0.1) is a known miss: 485 samples where
   about 412 are expected (+3.8 sigma) put the bracket at
   [4125.5, 5628.7]. *)
let test_estimator_coverage () =
  let ns = [ 500; 1000; 2000; 4124; 5000 ] and rates = [ 0.1; 0.5 ] in
  let cases = ref 0 and misses = ref [] in
  for seed = 1 to 1000 do
    List.iter
      (fun n ->
        let c = sampled_count ~seed ~n ~rate:1.0 in
        if c <> n || Estimator.scaled ~rate:1.0 c <> float_of_int n then
          Alcotest.failf "rate 1 not exact: seed %d, n %d, %d sampled" seed n c;
        List.iter
          (fun rate ->
            incr cases;
            if not (brackets ~rate ~n (sampled_count ~seed ~n ~rate)) then
              misses := (seed, n, rate) :: !misses)
          rates)
      ns
  done;
  Alcotest.(check bool) "(54, 4124, 0.1) is a known miss" true
    (List.mem (54, 4124, 0.1) !misses);
  let missed = List.length !misses in
  if missed * 1000 > !cases then
    Alcotest.failf "%d of %d cases missed their 99.9%% interval" missed !cases

let prop_sampler_determinism =
  QCheck.Test.make ~name:"same seed, same offers => identical report and digest" ~count:40
    QCheck.(pair (int_range 1 10_000) (list_of_size Gen.(int_range 1 200) (int_range 0 20)))
    (fun (seed, flow_ixs) ->
      let run () =
        let s = Sampler.create ~seed ~dpid:101 ~rate:0.3 () in
        Sampler.set_enabled s true;
        List.iter (fun i -> Sampler.offer s ~tunnel_id:(Some 1) (fun () -> key i)) flow_ixs;
        let r = Sampler.report s ~now:1.0 in
        (Sampler.canonical_of_report r, Sampler.digest s)
      in
      run () = run ())

let prop_sketch_never_undercounts =
  QCheck.Test.make ~name:"space-saving count >= true count" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 12))
    (fun flow_ixs ->
      let s = Sketch.create ~capacity:4 in
      let truth = Hashtbl.create 16 in
      List.iter
        (fun i ->
          Sketch.touch s (key i);
          Hashtbl.replace truth i (1 + Option.value ~default:0 (Hashtbl.find_opt truth i)))
        flow_ixs;
      List.for_all
        (fun (e : Sketch.entry) ->
          (* every retained entry's count brackets its true count:
             count - err <= true <= count *)
          let true_count =
            Hashtbl.fold
              (fun i t acc ->
                if Flow_key.equal e.Sketch.e_key (key i) then Some t else acc)
              truth None
          in
          match true_count with
          | None -> false (* the sketch invented a key *)
          | Some t -> e.Sketch.e_count >= t && e.Sketch.e_count - e.Sketch.e_err <= t)
        (Sketch.entries s))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scotch_telemetry"
    [ ( "sketch",
        [ Alcotest.test_case "exact under capacity" `Quick test_sketch_exact_under_capacity;
          Alcotest.test_case "capacity bound" `Quick test_sketch_capacity_bound;
          Alcotest.test_case "heavy hitter survives" `Quick test_sketch_heavy_hitter_survives;
          Alcotest.test_case "clear" `Quick test_sketch_clear ] );
      ( "estimator",
        [ Alcotest.test_case "identity at rate 1" `Quick test_estimator_identity_at_rate_one;
          Alcotest.test_case "rejects bad rate" `Quick test_estimator_rejects_bad_rate;
          Alcotest.test_case "interval brackets" `Quick test_estimator_interval_brackets;
          Alcotest.test_case "rate_lower monotone" `Quick test_estimator_rate_lower_monotone;
          Alcotest.test_case "empty window" `Quick test_estimator_empty_window ] );
      ( "sampler",
        [ Alcotest.test_case "duty filter" `Quick test_sampler_duty_filter;
          Alcotest.test_case "disabled draws nothing" `Quick
            test_sampler_disabled_draws_nothing;
          Alcotest.test_case "window resets" `Quick test_sampler_window_resets ] );
      ( "properties",
        [ Alcotest.test_case "scaled estimate brackets the truth; exact at rate 1" `Quick
            test_estimator_coverage;
          QCheck_alcotest.to_alcotest prop_sampler_determinism;
          QCheck_alcotest.to_alcotest prop_sketch_never_undercounts ] ) ]
