(* Unit tests for Scotch_obs: lib/util edge cases the registry depends
   on (empty/saturated histogram quantiles), registry
   registration/exposition semantics, the ring-buffer tracer,
   and end-to-end determinism — two same-seed testbed runs must produce
   a byte-identical Prometheus snapshot and trace digest. *)

open Scotch_util
open Scotch_obs

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Histogram edge cases *)

let test_histogram_empty_quantile () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:10 in
  Alcotest.(check bool) "quantile_opt None" true (Histogram.quantile_opt h 0.5 = None)

let test_histogram_all_underflow () =
  let h = Histogram.create ~lo:10.0 ~hi:20.0 ~bins:10 in
  for _ = 1 to 5 do
    Histogram.add h 1.0
  done;
  Alcotest.(check int) "underflow" 5 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 0 (Histogram.overflow h);
  (* the whole mass sits below [lo]: the CDF is already 1 at the first
     bin, so every quantile reports the first bin's center *)
  match Histogram.quantile_opt h 0.5 with
  | None -> Alcotest.fail "expected Some"
  | Some q -> check_float "first bin center" (Histogram.bin_center h 0) q

let test_histogram_all_overflow () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:10 in
  for _ = 1 to 5 do
    Histogram.add h 42.0
  done;
  Alcotest.(check int) "overflow" 5 (Histogram.overflow h);
  (* all mass above [hi]: no in-range bin ever reaches the target, the
     quantile saturates at the upper bound *)
  match Histogram.quantile_opt h 0.99 with
  | None -> Alcotest.fail "expected Some"
  | Some q -> check_float "saturates at hi" 1.0 q

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counters () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"test" ~labels:[ ("dpid", "1") ] "scotch_test_total" in
  for _ = 1 to 5 do
    Registry.incr c
  done;
  Alcotest.(check int) "value" 5 (Registry.counter_value c);
  (* re-registration (labels in any order) returns the same handle *)
  let c' = Registry.counter r ~labels:[ ("dpid", "1") ] "scotch_test_total" in
  Registry.incr c';
  Alcotest.(check int) "same cell" 6 (Registry.counter_value c);
  Alcotest.(check int) "one instance" 1 (Registry.size r)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r "scotch_test_total");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Registry: scotch_test_total already registered as a counter, not a gauge_fn")
    (fun () -> Registry.gauge_fn r "scotch_test_total" (fun () -> 0.0))

let test_registry_pull_metrics () =
  let r = Registry.create () in
  let backing = ref 3 in
  Registry.counter_fn r "scotch_pull_total" (fun () -> !backing);
  Registry.gauge_fn r "scotch_pull_depth" (fun () -> 2.5);
  backing := 7;
  let by_name n =
    List.find (fun s -> s.Registry.s_name = n) (Registry.samples r)
  in
  check_float "polled at snapshot" 7.0 (by_name "scotch_pull_total").Registry.s_value;
  check_float "gauge_fn" 2.5 (by_name "scotch_pull_depth").Registry.s_value;
  (* last writer wins: a rebuilt component replaces the closure *)
  Registry.counter_fn r "scotch_pull_total" (fun () -> 100);
  check_float "closure replaced" 100.0 (by_name "scotch_pull_total").Registry.s_value;
  Alcotest.(check int) "still one instance" 2 (Registry.size r)

let test_registry_prometheus () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"Packets in" ~labels:[ ("dpid", "2") ] "scotch_pin_total" in
  for _ = 1 to 3 do
    Registry.incr c
  done;
  Registry.gauge_fn r "scotch_depth" (fun () -> 1.5);
  let h = Registry.histogram r ~lo:0.0 ~hi:1.0 ~bins:4 "scotch_lat_seconds" in
  Registry.observe h 0.3;
  Registry.observe h 0.9;
  let text = Registry.to_prometheus r in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "help line" true (has "# HELP scotch_pin_total Packets in");
  Alcotest.(check bool) "type line" true (has "# TYPE scotch_pin_total counter");
  Alcotest.(check bool) "counter sample" true (has "scotch_pin_total{dpid=\"2\"} 3");
  Alcotest.(check bool) "gauge sample" true (has "scotch_depth 1.5");
  Alcotest.(check bool) "histogram count" true (has "scotch_lat_seconds_count 2");
  Alcotest.(check bool) "cumulative +Inf" true (has "le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram sum" true (has "scotch_lat_seconds_sum 1.2")

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.instant tr ~name:(Printf.sprintf "e%d" i) ~cat:"test" ~ts:(float_of_int i)
      ~tid:0 ~args:[]
  done;
  Alcotest.(check int) "len capped" 4 (Trace.length tr);
  Alcotest.(check int) "emitted" 6 (Trace.emitted tr);
  Alcotest.(check int) "dropped" 2 (Trace.dropped tr);
  (* newest wins: e3..e6 retained, oldest first *)
  Alcotest.(check (list string)) "tail retained" [ "e3"; "e4"; "e5"; "e6" ]
    (List.map (fun e -> e.Trace.name) (Trace.events tr))

let test_trace_json () =
  let tr = Trace.create ~capacity:8 () in
  Trace.complete tr ~name:"span \"x\"" ~cat:"core" ~ts:0.001 ~dur:0.0005 ~tid:3
    ~args:[ ("outcome", "overlay") ];
  let json = Trace.to_chrome_json tr in
  Alcotest.(check string) "chrome trace"
    "{\"traceEvents\":[{\"name\":\"span \\\"x\\\"\",\"cat\":\"core\",\"ph\":\"X\",\"ts\":1000,\"dur\":500,\"pid\":1,\"tid\":3,\"args\":{\"outcome\":\"overlay\"}}],\"displayTimeUnit\":\"ms\"}"
    json

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: same seed => identical snapshot + digest *)

let flash_crowd_snapshot ~seed =
  Obs.reset ();
  Obs.enable ();
  let net = Scotch_experiments.Testbed.scotch_net ~seed () in
  let attack = Scotch_experiments.Testbed.attack_source net ~rate:300.0 () in
  Scotch_workload.Source.start attack;
  Scotch_experiments.Testbed.run_until net ~until:1.5;
  let prom = Registry.to_prometheus (Obs.registry ()) in
  let digest = Trace.digest (Obs.tracer ()) in
  let emitted = Trace.emitted (Obs.tracer ()) in
  Obs.disable ();
  Obs.reset ();
  (prom, digest, emitted)

let test_determinism () =
  let prom1, dig1, n1 = flash_crowd_snapshot ~seed:11 in
  let prom2, dig2, n2 = flash_crowd_snapshot ~seed:11 in
  Alcotest.(check bool) "trace non-empty" true (n1 > 0);
  Alcotest.(check string) "identical prometheus snapshot" prom1 prom2;
  Alcotest.(check string) "identical trace digest" dig1 dig2;
  Alcotest.(check int) "identical event count" n1 n2;
  let _, dig3, _ = flash_crowd_snapshot ~seed:12 in
  Alcotest.(check bool) "different seed differs" true (dig1 <> dig3)

let () =
  Alcotest.run "scotch_obs"
    [ ( "util-edges",
        [ Alcotest.test_case "histogram empty quantile" `Quick test_histogram_empty_quantile;
          Alcotest.test_case "histogram all underflow" `Quick test_histogram_all_underflow;
          Alcotest.test_case "histogram all overflow" `Quick test_histogram_all_overflow ] );
      ( "registry",
        [ Alcotest.test_case "counters accumulate" `Quick test_registry_counters;
          Alcotest.test_case "kind mismatch raises" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "pull metrics" `Quick test_registry_pull_metrics;
          Alcotest.test_case "prometheus exposition" `Quick test_registry_prometheus ] );
      ( "trace",
        [ Alcotest.test_case "ring eviction" `Quick test_trace_ring;
          Alcotest.test_case "chrome json" `Quick test_trace_json ] );
      ("determinism", [ Alcotest.test_case "same seed, same obs" `Quick test_determinism ])
    ]
