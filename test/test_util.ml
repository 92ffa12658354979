(* Unit and property tests for Scotch_util: PRNG, statistics,
   histogram, token bucket, admission, table printer. *)

open Scotch_util

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int a max_int <> Rng.int b max_int then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int child1 max_int <> Rng.int child2 max_int then differs := true
  done;
  Alcotest.(check bool) "split streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~rate:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 1/rate" true (abs_float (mean -. 0.25) < 0.01)

let test_rng_pareto_minimum () =
  let rng = Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Rng.pareto rng ~shape:1.2 ~scale:3.0 in
    Alcotest.(check bool) "above scale" true (v >= 3.0)
  done

let test_rng_pareto_heavy_tail () =
  let rng = Rng.create 7 in
  let n = 50_000 in
  let big = ref 0 in
  for _ = 1 to n do
    if Rng.pareto rng ~shape:1.0 ~scale:1.0 > 100.0 then incr big
  done;
  (* P(X > 100) = 1/100 for alpha=1 *)
  let frac = float_of_int !big /. float_of_int n in
  Alcotest.(check bool) "tail mass ~ 1%" true (frac > 0.005 && frac < 0.02)

let test_rng_bernoulli () =
  let rng = Rng.create 8 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p ~ 0.3" true (abs_float (frac -. 0.3) < 0.02)

let test_rng_choice () =
  let rng = Rng.create 11 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choice rng arr in
    Alcotest.(check bool) "choice in array" true (Array.exists (( = ) v) arr)
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_samples_percentile () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  check_float ~eps:1e-9 "p0" 1.0 (Stats.Samples.percentile s 0.0);
  check_float ~eps:1e-9 "p100" 100.0 (Stats.Samples.percentile s 1.0);
  check_float ~eps:1e-6 "median" 50.5 (Stats.Samples.median s);
  check_float ~eps:1e-9 "mean" 50.5 (Stats.Samples.mean s)

let test_samples_empty () =
  let s = Stats.Samples.create () in
  Alcotest.check_raises "percentile empty" (Invalid_argument "Samples.percentile: empty")
    (fun () -> ignore (Stats.Samples.percentile s 0.5))

let test_rate_meter () =
  let m = Stats.Rate_meter.create ~window:1.0 in
  for i = 0 to 9 do
    Stats.Rate_meter.tick m ~now:(float_of_int i *. 0.05)
  done;
  (* 10 events within the last second *)
  check_float ~eps:1e-9 "rate" 10.0 (Stats.Rate_meter.rate m ~now:0.5);
  (* after the window passes, events expire *)
  check_float ~eps:1e-9 "expired" 0.0 (Stats.Rate_meter.rate m ~now:2.0);
  Alcotest.(check int) "total survives expiry" 10 (Stats.Rate_meter.total m)

(* The queue meter the ring replaced, kept as the reference: a tick
   expires every timestamp at or before [now - window], then queues
   [now]. *)
module Queue_meter = struct
  type t = { window : float; events : float Queue.t; mutable total : int }

  let create ~window = { window; events = Queue.create (); total = 0 }

  let expire t ~now =
    let cutoff = now -. t.window in
    while (not (Queue.is_empty t.events)) && Queue.peek t.events <= cutoff do
      ignore (Queue.pop t.events)
    done

  let tick t ~now =
    expire t ~now;
    Queue.push now t.events;
    t.total <- t.total + 1

  let rate t ~now =
    expire t ~now;
    float_of_int (Queue.length t.events) /. t.window
end

(* Random tick/query sequences on a non-decreasing clock: steps of 0
   (equal timestamps), steps that land exactly on [now - window] of an
   earlier tick, and bursts long enough to grow the ring past its first
   capacity several times.  Every step is a multiple of 1/1024, so the
   clock's sums are exact and the boundary cases stay exact. *)
let prop_rate_meter_matches_queue =
  let open QCheck.Gen in
  let window = 0.25 in
  let step =
    frequency
      [ (3, return 0.0); (2, return (window /. 4.0)); (1, return window);
        (4, map (fun n -> float_of_int n /. 1024.0) (int_bound 300)) ]
  in
  let op = pair bool step in
  QCheck.Test.make ~name:"ring rate meter = queue meter" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 400) op))
    (fun ops ->
      let ring = Stats.Rate_meter.create ~window and queue = Queue_meter.create ~window in
      let now = ref 0.0 in
      List.for_all
        (fun (is_tick, dt) ->
          now := !now +. dt;
          if is_tick then begin
            Stats.Rate_meter.tick ring ~now:!now;
            Queue_meter.tick queue ~now:!now
          end;
          Stats.Rate_meter.rate ring ~now:!now = Queue_meter.rate queue ~now:!now
          && Stats.Rate_meter.total ring = queue.Queue_meter.total)
        ops)

(* Once the ring holds a full window, a tick allocates nothing: a
   thousand ticks read 0 minor words.  The
   timestamps are boxed beforehand, in a list, so passing one to [tick]
   allocates nothing either. *)
let test_rate_meter_tick_allocates_nothing () =
  let m = Stats.Rate_meter.create ~window:1.0 in
  let times n ~from = List.init n (fun i -> float_of_int (from + i) *. 0.001) in
  let rec ticks = function
    | [] -> ()
    | now :: rest ->
      Stats.Rate_meter.tick m ~now;
      ticks rest
  in
  ticks (times 5000 ~from:1);
  let later = times 1000 ~from:5001 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Minor.words (fun () -> ticks later));
  check_float ~eps:1.0 "steady rate" 1000.0 (Stats.Rate_meter.rate m ~now:6.0)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_counts () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -1.0; 10.0; 11.0 ];
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "count includes overflow" 7 (Histogram.count h);
  check_float ~eps:1e-9 "bin center" 0.5 (Histogram.bin_center h 0)

let test_histogram_quantile () =
  let h = Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 0 to 99 do
    Histogram.add h (float_of_int i +. 0.5)
  done;
  match Histogram.quantile_opt h 0.5 with
  | None -> Alcotest.fail "quantile_opt returned None on non-empty histogram"
  | Some q -> Alcotest.(check bool) "median near 50" true (abs_float (q -. 50.0) < 2.0)

(* ------------------------------------------------------------------ *)
(* Token bucket *)

let test_token_bucket_rate () =
  let tb = Token_bucket.create ~rate:100.0 ~burst:10.0 in
  (* drain the initial burst *)
  let taken = ref 0 in
  for _ = 1 to 20 do
    if Token_bucket.take tb ~now:0.0 then incr taken
  done;
  Alcotest.(check int) "burst limited" 10 !taken;
  (* after one second, 100 more tokens, capped at burst *)
  Alcotest.(check bool) "refilled" true (Token_bucket.take tb ~now:1.0);
  (* nine idle seconds refill 900 tokens, but the bucket holds 10 *)
  let later = ref 0 in
  for _ = 1 to 20 do
    if Token_bucket.take tb ~now:10.0 then incr later
  done;
  Alcotest.(check int) "refill capped at burst" 10 !later

let test_token_bucket_sustained_rate () =
  let tb = Token_bucket.create ~rate:50.0 ~burst:1.0 in
  let accepted = ref 0 in
  (* offer 1000 evenly spaced events over 2 seconds *)
  for i = 0 to 999 do
    if Token_bucket.take tb ~now:(float_of_int i *. 0.002) then incr accepted
  done;
  Alcotest.(check bool) "~100 accepted over 2 s" true (abs !accepted - 100 <= 2)

(* ------------------------------------------------------------------ *)
(* Table printer *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_table_printer () =
  let t = Table_printer.create [ "alpha"; "beta" ] in
  Table_printer.add_row t [ "1"; "2" ];
  Table_printer.add_floats t [ 3.14159; 2.0 ];
  let s = Table_printer.render t in
  Alcotest.(check bool) "contains header" true (contains ~needle:"alpha" s);
  Alcotest.(check bool) "contains float cell" true (contains ~needle:"3.142" s);
  Alcotest.(check int) "four lines" 4
    (List.length (String.split_on_char '\n' (String.trim s)));
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table_printer.add_row: arity mismatch")
    (fun () -> Table_printer.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Admission *)

let payloads q = Queue.fold (fun acc i -> i.Admission.payload :: acc) [] q |> List.rev

(* Budgets bound queued slots per tenant; refusals, evictions and
   expiries all land in the offender's own shed tally. *)
let test_admission_budget () =
  let a = Admission.create () in
  let q = Queue.create () in
  Admission.set_budget a ~tenant:1 1;
  Alcotest.(check bool) "within budget" true (Admission.offer a ~tenant:1);
  Admission.push a q ~at:0.0 ~tenant:1 "a";
  Alcotest.(check bool) "over budget" false (Admission.offer a ~tenant:1);
  Admission.refuse a ~tenant:1;
  Alcotest.(check bool) "no budget for tenant 2" true (Admission.offer a ~tenant:2);
  Alcotest.(check (list int)) "tenant 1 submitted/queued/shed" [ 2; 1; 1 ]
    [ Admission.submitted a ~tenant:1; Admission.queued a ~tenant:1; Admission.shed a ~tenant:1 ];
  Alcotest.(check int) "tenant 2 untouched" 0 (Admission.shed a ~tenant:2);
  Alcotest.check_raises "budget below 1"
    (Invalid_argument "Admission.set_budget: budget must be >= 1") (fun () ->
      Admission.set_budget a ~tenant:3 0)

(* Eviction never crosses a tenant boundary and keeps everyone else's
   order. *)
let test_admission_evict_oldest () =
  let a = Admission.create () in
  let q = Queue.create () in
  List.iter (fun (tenant, p) -> Admission.push a q ~at:0.0 ~tenant p)
    [ (1, "a"); (2, "b"); (1, "c"); (2, "d") ];
  (match Admission.evict_oldest a q ~tenant:2 with
  | Some v -> Alcotest.(check string) "tenant 2's oldest" "b" v.Admission.payload
  | None -> Alcotest.fail "no victim");
  Alcotest.(check (list string)) "order kept" [ "a"; "c"; "d" ] (payloads q);
  (match Admission.evict_oldest a q ~tenant:1 with
  | Some v -> Alcotest.(check string) "head is the tenant's" "a" v.Admission.payload
  | None -> Alcotest.fail "no victim");
  Alcotest.(check bool) "no victim of tenant 3" true (Admission.evict_oldest a q ~tenant:3 = None);
  Alcotest.(check (list int)) "charged to the owners" [ 1; 1; 0 ]
    [ Admission.shed a ~tenant:1; Admission.shed a ~tenant:2; Admission.shed a ~tenant:3 ];
  Alcotest.(check (list int)) "slots released" [ 1; 1 ]
    [ Admission.queued a ~tenant:1; Admission.queued a ~tenant:2 ]

(* [take] expires stale heads (each passed to [expire] and charged to
   its tenant) and returns the first fresh item. *)
let test_admission_take () =
  let a = Admission.create () in
  let q = Queue.create () in
  List.iter (fun (at, tenant, p) -> Admission.push a q ~at ~tenant p)
    [ (0.0, 1, "old1"); (0.1, 2, "old2"); (0.9, 1, "fresh"); (0.0, 1, "behind") ];
  let expired = ref [] in
  let expire i = expired := i.Admission.payload :: !expired in
  (match Admission.take a q ~now:1.0 ~deadline:0.5 ~expire with
  | Some i -> Alcotest.(check string) "first fresh item" "fresh" i.Admission.payload
  | None -> Alcotest.fail "nothing taken");
  Alcotest.(check (list string)) "stale heads expired" [ "old1"; "old2" ] (List.rev !expired);
  Alcotest.(check (list int)) "sheds" [ 1; 1 ]
    [ Admission.shed a ~tenant:1; Admission.shed a ~tenant:2 ];
  Alcotest.(check int) "tenant 1 still holds one slot" 1 (Admission.queued a ~tenant:1);
  (match Admission.take a q ~now:10.0 ~deadline:0.0 ~expire with
  | Some i -> Alcotest.(check string) "deadline 0 never expires" "behind" i.Admission.payload
  | None -> Alcotest.fail "nothing taken");
  Alcotest.(check bool) "empty" true (Admission.take a q ~now:10.0 ~deadline:0.0 ~expire = None)

let () =
  Alcotest.run "scotch_util"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_minimum;
          Alcotest.test_case "pareto heavy tail" `Quick test_rng_pareto_heavy_tail;
          Alcotest.test_case "bernoulli frequency" `Quick test_rng_bernoulli;
          Alcotest.test_case "choice membership" `Quick test_rng_choice ] );
      ( "stats",
        [ Alcotest.test_case "samples percentile" `Quick test_samples_percentile;
          Alcotest.test_case "samples empty" `Quick test_samples_empty;
          Alcotest.test_case "rate meter window" `Quick test_rate_meter;
          QCheck_alcotest.to_alcotest prop_rate_meter_matches_queue;
          Alcotest.test_case "rate meter tick allocation" `Quick
            test_rate_meter_tick_allocates_nothing ] );
      ( "histogram",
        [ Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "quantile" `Quick test_histogram_quantile ] );
      ( "token_bucket",
        [ Alcotest.test_case "burst and refill" `Quick test_token_bucket_rate;
          Alcotest.test_case "sustained rate" `Quick test_token_bucket_sustained_rate ] );
      ( "admission",
        [ Alcotest.test_case "budget" `Quick test_admission_budget;
          Alcotest.test_case "evict oldest" `Quick test_admission_evict_oldest;
          Alcotest.test_case "take" `Quick test_admission_take ] );
      ("table_printer", [ Alcotest.test_case "render and arity" `Quick test_table_printer ])
    ]
