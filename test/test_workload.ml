(* Tests for Scotch_workload: flow generation, traffic sources, size
   distributions and the trace generator/replayer. *)

open Scotch_workload
open Scotch_topo
open Scotch_util

(* a zero-network rig: two hosts wired back to back *)
let rig () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  (* a's uplink delivers straight to b *)
  let link = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:1e-6 ~queue_capacity:100000 in
  Scotch_sim.Link.connect link (fun pkt -> Host.deliver b pkt);
  Host.set_uplink a link;
  (e, a, b)

let test_source_constant_rate () =
  let e, a, b = rig () in
  let src =
    Source.create e ~rng:(Rng.create 1) ~host:a ~dst:b ~rate:100.0 ~arrival:Source.Constant ()
  in
  Source.start src;
  Scotch_sim.Engine.run ~until:2.0 e;
  Alcotest.(check bool) "~200 flows in 2 s" true
    (abs (Source.launched_count src - 200) <= 1)

let test_source_poisson_rate () =
  let e, a, b = rig () in
  let src = Source.create e ~rng:(Rng.create 2) ~host:a ~dst:b ~rate:200.0 () in
  Source.start src;
  Scotch_sim.Engine.run ~until:5.0 e;
  let n = Source.launched_count src in
  Alcotest.(check bool) "~1000 flows" true (n > 850 && n < 1150)

let test_source_stop () =
  let e, a, b = rig () in
  let src = Source.create e ~rng:(Rng.create 3) ~host:a ~dst:b ~rate:100.0 () in
  Source.start src;
  Scotch_sim.Engine.schedule_at e ~at:1.0 (fun () -> Source.stop src);
  Scotch_sim.Engine.run ~until:3.0 e;
  let n = Source.launched_count src in
  Alcotest.(check bool) "stopped early" true (n < 150)

let test_source_flow_completes_after_stop () =
  let e, a, b = rig () in
  let src = Source.create e ~rng:(Rng.create 4) ~host:a ~dst:b ~rate:1.0 () in
  let l =
    Source.launch_flow src ~spec:{ Flow_gen.packets = 50; payload = 10; interval = 0.1 }
  in
  Source.stop src;
  Scotch_sim.Engine.run e;
  match Host.flow_record b l.Flow_gen.flow_id with
  | Some r -> Alcotest.(check int) "all packets sent" 50 r.Host.packets
  | None -> Alcotest.fail "flow not delivered"

let test_source_spoofing_unique_sources () =
  let e, a, b = rig () in
  let src = Source.create e ~rng:(Rng.create 5) ~host:a ~dst:b ~rate:100.0 ~spoof_sources:true () in
  let ips =
    List.init 100 (fun _ ->
        (Source.launch_flow src).Flow_gen.key.Scotch_packet.Flow_key.ip_src)
  in
  Alcotest.(check bool) "flows launched" true (ips <> []);
  Alcotest.(check int) "all source IPs distinct" (List.length ips)
    (List.length (List.sort_uniq compare ips));
  Alcotest.(check int) "no per-flow records kept" 0 (List.length (Source.launched src));
  Alcotest.(check int) "but every flow counted" 100 (Source.launched_count src)

let test_source_keys_unique_across_sources () =
  (* regression: two sources on one host must not collide on 5-tuples *)
  let e, a, b = rig () in
  let s1 = Source.create e ~rng:(Rng.create 6) ~host:a ~dst:b ~rate:50.0 () in
  let s2 = Source.create e ~rng:(Rng.create 7) ~host:a ~dst:b ~rate:50.0 () in
  Source.start s1;
  Source.start s2;
  Scotch_sim.Engine.run ~until:2.0 e;
  let keys =
    List.map (fun (l : Flow_gen.launched) -> l.Flow_gen.key)
      (Source.launched s1 @ Source.launched s2)
  in
  Alcotest.(check int) "all keys distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_source_dst_snapshot () =
  (* regression: retargeting a source must not redirect in-flight flows *)
  let e, a, b = rig () in
  let c = Host.create e ~id:3 ~name:"c" in
  let src = Source.create e ~rng:(Rng.create 8) ~host:a ~dst:b ~rate:1.0 () in
  let l = Source.launch_flow src ~spec:{ Flow_gen.packets = 20; payload = 10; interval = 0.05 } in
  Scotch_sim.Engine.schedule_at e ~at:0.3 (fun () -> Source.set_destination src ~dst:c);
  Scotch_sim.Engine.run e;
  match Host.flow_record b l.Flow_gen.flow_id with
  | Some r -> Alcotest.(check int) "all 20 at original dst" 20 r.Host.packets
  | None -> Alcotest.fail "flow lost"

let test_failure_fraction () =
  let e, a, b = rig () in
  let src = Source.create e ~rng:(Rng.create 9) ~host:a ~dst:b ~rate:100.0 () in
  Source.start src;
  Scotch_sim.Engine.run ~until:1.0 e;
  Alcotest.(check (float 1e-9)) "lossless path" 0.0
    (Source.failure_fraction src ~dst:b ());
  (* against the WRONG destination everything "fails" *)
  let c = Host.create e ~id:4 ~name:"c" in
  Alcotest.(check (float 1e-9)) "wrong dst" 1.0 (Source.failure_fraction src ~dst:c ())

(* After the first, each packet of a 5-packet flow costs the step that
   sends it 17 minor words: its [Packet.with_meta] copy (a 7-word
   packet and a 4-word meta), the delay to the next packet (4: the
   jitter draw's boxed result and the boxed delay) and the engine's
   boxed clock for the step (2).  The last packet schedules nothing:
   13.  The flow's one closure and counter are made at launch, and the
   link takes each packet into its ring. *)
let test_source_later_packet_words () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" and b = Host.create e ~id:2 ~name:"b" in
  let link = Scotch_sim.Link.create e ~bandwidth_bps:1e9 ~latency:1e-6 ~queue_capacity:16 in
  Scotch_sim.Link.connect link ignore;
  Host.set_uplink a link;
  let src = Source.create e ~rng:(Rng.create 5) ~host:a ~dst:b ~rate:1.0 () in
  let spec = { Flow_gen.packets = 5; payload = 1000; interval = 0.01 } in
  let flow () = ignore (Source.launch_flow src ~spec) in
  (* grow the engine's tables and the link's ring *)
  flow ();
  Scotch_sim.Engine.run e;
  flow ();
  (* the words of each step that sent a packet, in order *)
  let rec sends acc =
    let sent = Source.packets_sent src and more = ref false in
    let words = Minor.words (fun () -> more := Scotch_sim.Engine.step e) in
    let acc = if Source.packets_sent src > sent then words :: acc else acc in
    if !more then sends acc else List.rev acc
  in
  Alcotest.(check (list (float 0.0))) "words of each later packet's step"
    [ 17.0; 17.0; 17.0; 13.0 ] (sends [])

let test_completion_fraction () =
  let e, a, b = rig () in
  let src = Source.create e ~rng:(Rng.create 10) ~host:a ~dst:b ~rate:1.0 () in
  ignore (Source.launch_flow src ~spec:{ Flow_gen.packets = 5; payload = 10; interval = 0.01 });
  Scotch_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "complete" 1.0 (Source.completion_fraction src ~dst:b ())

(* ------------------------------------------------------------------ *)
(* Sizes *)

let test_sizes_pareto () =
  let sample = Sizes.pareto ~alpha:1.2 ~min_packets:2 ~max_packets:100 ~pkt_rate:100.0 () in
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let s = sample rng in
    Alcotest.(check bool) "within bounds" true
      (s.Flow_gen.packets >= 2 && s.Flow_gen.packets <= 100)
  done

(* ------------------------------------------------------------------ *)
(* Tracegen *)

let params =
  { Tracegen.duration = 50.0; base_rate = 20.0; flash_start = 20.0; flash_end = 30.0;
    flash_multiplier = 10.0; hotspot_fraction = 0.8; num_sources = 3; num_destinations = 2;
    size_of = (fun _ -> Flow_gen.syn_spec) }

let test_trace_sorted_and_bounded () =
  let trace = Tracegen.generate (Rng.create 13) params in
  let sorted = ref true and bounded = ref true in
  let prev = ref 0.0 in
  List.iter
    (fun (e : Tracegen.flow_event) ->
      if e.Tracegen.at < !prev then sorted := false;
      prev := e.Tracegen.at;
      if e.Tracegen.at < 0.0 || e.Tracegen.at >= params.Tracegen.duration then bounded := false;
      if e.Tracegen.src < 0 || e.Tracegen.src >= params.Tracegen.num_sources then bounded := false;
      if e.Tracegen.dst < 0 || e.Tracegen.dst >= params.Tracegen.num_destinations then
        bounded := false)
    trace;
  Alcotest.(check bool) "sorted" true !sorted;
  Alcotest.(check bool) "bounded" true !bounded

let test_trace_flash_ratio () =
  let trace = Tracegen.generate (Rng.create 14) params in
  let base = ref 0 and flash = ref 0 in
  List.iter
    (fun (e : Tracegen.flow_event) ->
      if e.Tracegen.at >= params.Tracegen.flash_start && e.Tracegen.at < params.Tracegen.flash_end
      then incr flash
      else incr base)
    trace;
  (* flash window: 10 s at 200/s = 2000; base: 40 s at 20/s = 800 *)
  let ratio = float_of_int !flash /. float_of_int (max 1 !base) in
  Alcotest.(check bool) "flash dominates" true (ratio > 1.5 && ratio < 4.0)

let test_trace_hotspot () =
  let trace = Tracegen.generate (Rng.create 15) params in
  let hot = List.length (List.filter (fun e -> e.Tracegen.dst = 0) trace) in
  let frac = float_of_int hot /. float_of_int (List.length trace) in
  Alcotest.(check bool) "hotspot fraction ~0.8" true (abs_float (frac -. 0.8) < 0.05)

let test_trace_total_packets () =
  let trace = Tracegen.generate (Rng.create 16) params in
  (* probe flows: one packet each *)
  Alcotest.(check int) "packets = flows for probes" (List.length trace)
    (Tracegen.total_packets trace)

let test_trace_replay () =
  let e = Scotch_sim.Engine.create () in
  let hosts = Array.init 3 (fun i -> Host.create e ~id:(i + 1) ~name:(Printf.sprintf "h%d" i)) in
  let dests = Array.init 2 (fun i -> Host.create e ~id:(10 + i) ~name:(Printf.sprintf "d%d" i)) in
  (* every source delivers straight to whichever destination the packet names *)
  Array.iter
    (fun h ->
      let link = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:1e-6 ~queue_capacity:100000 in
      Scotch_sim.Link.connect link (fun pkt ->
          Array.iter
            (fun d ->
              if Scotch_packet.Ipv4_addr.equal (Host.ip d) pkt.Scotch_packet.Packet.ip.Scotch_packet.Headers.Ipv4.dst
              then Host.deliver d pkt)
            dests);
      Host.set_uplink h link)
    hosts;
  let sources =
    Array.map (fun h -> Source.create e ~rng:(Rng.create (Host.id h)) ~host:h ~dst:dests.(0) ~rate:1.0 ()) hosts
  in
  let small = { params with Tracegen.duration = 10.0; base_rate = 10.0; flash_start = 99.0; flash_end = 99.0 } in
  let trace = Tracegen.generate (Rng.create 17) small in
  let launched = Tracegen.replay e trace ~sources ~destinations:dests in
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "every event launched" (List.length trace)
    (Array.fold_left (fun acc l -> acc + if l <> None then 1 else 0) 0 launched);
  let delivered = Array.fold_left (fun acc d -> acc + Host.flows_seen d) 0 dests in
  Alcotest.(check int) "every flow delivered" (List.length trace) delivered

let () =
  Alcotest.run "scotch_workload"
    [ ( "source",
        [ Alcotest.test_case "constant rate" `Quick test_source_constant_rate;
          Alcotest.test_case "poisson rate" `Quick test_source_poisson_rate;
          Alcotest.test_case "stop" `Quick test_source_stop;
          Alcotest.test_case "flow completes after stop" `Quick test_source_flow_completes_after_stop;
          Alcotest.test_case "spoofed sources unique" `Quick test_source_spoofing_unique_sources;
          Alcotest.test_case "keys unique across sources (regression)" `Quick
            test_source_keys_unique_across_sources;
          Alcotest.test_case "dst snapshot (regression)" `Quick test_source_dst_snapshot;
          Alcotest.test_case "failure fraction" `Quick test_failure_fraction;
          Alcotest.test_case "completion fraction" `Quick test_completion_fraction;
          Alcotest.test_case "later packet words" `Quick test_source_later_packet_words ] );
      ( "sizes",
        [ Alcotest.test_case "pareto bounds" `Quick test_sizes_pareto ] );
      ( "tracegen",
        [ Alcotest.test_case "sorted and bounded" `Quick test_trace_sorted_and_bounded;
          Alcotest.test_case "flash ratio" `Quick test_trace_flash_ratio;
          Alcotest.test_case "hotspot fraction" `Quick test_trace_hotspot;
          Alcotest.test_case "total packets" `Quick test_trace_total_packets;
          Alcotest.test_case "replay" `Quick test_trace_replay ] ) ]
