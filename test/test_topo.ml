(* Tests for Scotch_topo: hosts, middleboxes, the topology graph,
   wiring helpers, tunnels and path computation. *)

open Scotch_topo
open Scotch_switch
open Scotch_packet

let fast_profile =
  { Profile.open_vswitch with Profile.forward_latency = 0.0; datapath_pps = 1e9 }

let mk_packet ?(flow_id = 1) ?(seq = 0) ~src ~dst () =
  Packet.with_meta ~created:0.0 ~seq_in_flow:seq
    (Packet.udp_data ~payload_len:100 ~flow_id ~created:0.0 ~src_mac:(Host.mac src)
       ~dst_mac:(Host.mac dst) ~ip_src:(Host.ip src) ~ip_dst:(Host.ip dst) ~src_port:1000
       ~dst_port:80 ())

(* ------------------------------------------------------------------ *)
(* Host *)

let test_host_identity () =
  let e = Scotch_sim.Engine.create () in
  let h = Host.create e ~id:7 ~name:"h7" in
  Alcotest.(check int) "id" 7 (Host.id h);
  Alcotest.(check string) "name" "h7" (Host.name h);
  Alcotest.(check string) "stable ip" "10.0.0.7" (Ipv4_addr.to_string (Host.ip h))

let test_host_deliver_strips_and_records () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  let seen = ref None in
  Host.on_receive b (fun pkt -> seen := Some pkt);
  let pkt = mk_packet ~src:a ~dst:b () in
  let pkt = Packet.push_encap (Headers.Encap.mpls 3) pkt in
  let pkt = Packet.push_encap (Headers.Encap.mpls 9) pkt in
  Host.deliver b pkt;
  (match !seen with
  | Some p -> Alcotest.(check bool) "stripped" false (Packet.is_encapsulated p)
  | None -> Alcotest.fail "not delivered");
  Alcotest.(check int) "packet count" 1 (Host.received_packets b);
  Alcotest.(check int) "flows seen" 1 (Host.flows_seen b);
  match Host.flow_record b 1 with
  | Some r -> Alcotest.(check int) "flow packets" 1 r.Host.packets
  | None -> Alcotest.fail "no flow record"

let test_host_send_requires_uplink () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  Alcotest.(check bool) "raises without uplink" true
    (try
       Host.send a (mk_packet ~src:a ~dst:a ());
       false
     with Invalid_argument _ -> true)

let test_host_delay_tracking () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  Scotch_sim.Engine.schedule e ~delay:0.5 (fun () -> Host.deliver b (mk_packet ~src:a ~dst:b ()));
  Scotch_sim.Engine.run e;
  match Host.flow_record b 1 with
  | Some r ->
    Alcotest.(check (float 1e-9)) "mean delay" 0.5 (r.Host.delay_sum /. float_of_int r.Host.packets)
  | None -> Alcotest.fail "no flow record"

(* A host keeps one record per flow and nothing per packet: 200k
   deliveries of one flow leave its live heap where the first left it. *)
let test_host_memory_per_flow () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  let pkt = mk_packet ~src:a ~dst:b () in
  Host.deliver b pkt;
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for _ = 1 to 200_000 do
    Host.deliver b pkt
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  Alcotest.(check int) "delivered" 200_001 (Host.received_packets b);
  if grown >= 20_000 then Alcotest.failf "live heap grew by %d words" grown

(* ------------------------------------------------------------------ *)
(* Middlebox *)

let test_middlebox_stateful () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  let mb = Middlebox.create e () in
  let forwarded = ref 0 in
  let link = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:10 in
  Scotch_sim.Link.connect link (fun _ -> incr forwarded);
  Middlebox.connect_out mb link;
  (* seq 0 establishes, seq 1 passes *)
  Middlebox.receive mb (mk_packet ~src:a ~dst:b ~seq:0 ());
  Middlebox.receive mb (mk_packet ~src:a ~dst:b ~seq:1 ());
  (* a different flow starting mid-stream is rejected *)
  Middlebox.receive mb (mk_packet ~flow_id:2 ~src:b ~dst:a ~seq:3 ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "forwarded" 2 !forwarded;
  Alcotest.(check int) "processed" 2 (Middlebox.processed mb);
  Alcotest.(check int) "state violations" 1 (Middlebox.state_violations mb);
  Alcotest.(check int) "flows tracked" 1 (Middlebox.flows_tracked mb)

let test_middlebox_rejects_encapsulated () =
  let e = Scotch_sim.Engine.create () in
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  let mb = Middlebox.create e () in
  Middlebox.receive mb (Packet.push_encap (Headers.Encap.mpls 1) (mk_packet ~src:a ~dst:b ()));
  Alcotest.(check int) "encap violation" 1 (Middlebox.encap_violations mb);
  Alcotest.(check int) "not processed" 0 (Middlebox.processed mb)

(* ------------------------------------------------------------------ *)
(* Topology graph *)

(* line: s1 - s2 - s3, host a on s1, host b on s3 *)
let line_topology () =
  let e = Scotch_sim.Engine.create () in
  let topo = Topology.create e in
  let s =
    Array.init 3 (fun i ->
        let sw = Switch.create e ~dpid:(i + 1) ~name:(Printf.sprintf "s%d" (i + 1))
            ~profile:fast_profile () in
        Topology.add_switch topo sw;
        sw)
  in
  Topology.link_switches topo (s.(0), 10) (s.(1), 11);
  Topology.link_switches topo (s.(1), 12) (s.(2), 13);
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  Topology.add_host topo a;
  Topology.add_host topo b;
  Topology.attach_host topo a s.(0) ~port:1;
  Topology.attach_host topo b s.(2) ~port:1;
  (e, topo, s, a, b)

let test_shortest_path_line () =
  let _, topo, _, _, _ = line_topology () in
  (match Topology.shortest_path topo ~src:1 ~dst:3 with
  | Some [ (1, 10); (2, 12) ] -> ()
  | Some p ->
    Alcotest.fail
      (Printf.sprintf "unexpected path: %s"
         (String.concat ";" (List.map (fun (d, p) -> Printf.sprintf "(%d,%d)" d p) p)))
  | None -> Alcotest.fail "no path");
  Alcotest.(check (option (list (pair int int)))) "self path" (Some [])
    (Topology.shortest_path topo ~src:2 ~dst:2);
  Alcotest.(check (option (list (pair int int)))) "unknown dst" None
    (Topology.shortest_path topo ~src:1 ~dst:99)

let test_route_to_host () =
  let _, topo, _, _, b = line_topology () in
  match Topology.route_to_host topo ~src:1 ~dst_ip:(Host.ip b) with
  | Some [ (1, 10); (2, 12); (3, 1) ] -> ()
  | Some _ -> Alcotest.fail "unexpected route"
  | None -> Alcotest.fail "no route"

let test_host_attachment () =
  let _, topo, _, a, _ = line_topology () in
  Alcotest.(check (option (pair int int))) "attachment" (Some (1, 1))
    (Topology.host_attachment topo (Host.ip a));
  Alcotest.(check (option (pair int int))) "unknown" None
    (Topology.host_attachment topo (Ipv4_addr.make 1 2 3 4))

let test_end_to_end_forwarding () =
  (* manual rules along the line; packet a -> b crosses three switches *)
  let e, _, s, a, b = line_topology () in
  let pkt = mk_packet ~src:a ~dst:b () in
  let key = Packet.flow_key pkt in
  let install sw port =
    match
      Switch.install_direct sw ~table_id:0 ~priority:10 ~match_:(Scotch_openflow.Of_match.exact_flow key)
        ~instructions:(Scotch_openflow.Of_action.output (Scotch_openflow.Of_types.Port_no.Physical port))
        ()
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "install"
  in
  install s.(0) 10;
  install s.(1) 12;
  install s.(2) 1;
  Host.send a pkt;
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "delivered end to end" 1 (Host.received_packets b)

let test_tunnel_to_host () =
  let e, topo, s, _, b = line_topology () in
  let tid = Topology.add_tunnel_to_host topo s.(0) b in
  (match Topology.tunnel topo tid with
  | Some t ->
    Alcotest.(check int) "src dpid" 1 t.Topology.src_dpid;
    Alcotest.(check bool) "dst host" true (t.Topology.dst = `Host 2)
  | None -> Alcotest.fail "tunnel not registered");
  (* send straight into the tunnel *)
  (match
     Switch.install_direct s.(0) ~table_id:0 ~priority:0 ~match_:Scotch_openflow.Of_match.wildcard
       ~instructions:
         (Scotch_openflow.Of_action.output
            (Scotch_openflow.Of_types.Port_no.Physical (Topology.tunnel_port_of_id tid)))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  Switch.receive s.(0) ~in_port:1 (mk_packet ~src:b ~dst:b ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "tunnel delivery" 1 (Host.received_packets b)

let test_tunnel_between_switches_duplex () =
  let e, topo, s, _, _ = line_topology () in
  let tid_ab, tid_ba = Topology.add_tunnel_switches topo s.(0) s.(2) in
  Alcotest.(check bool) "distinct ids" true (tid_ab <> tid_ba);
  (match Topology.tunnel topo tid_ab with
  | Some t -> Alcotest.(check bool) "a->c" true (t.Topology.src_dpid = 1 && t.Topology.dst = `Switch 3)
  | None -> Alcotest.fail "missing tunnel");
  ignore e

let test_duplicate_registration_rejected () =
  let e = Scotch_sim.Engine.create () in
  let topo = Topology.create e in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:fast_profile () in
  Topology.add_switch topo sw;
  Alcotest.(check bool) "duplicate dpid" true
    (try
       Topology.add_switch topo sw;
       false
     with Invalid_argument _ -> true)

let test_neighbors () =
  let _, topo, _, _, _ = line_topology () in
  Alcotest.(check int) "s2 has two neighbors" 2 (List.length (Topology.neighbors topo 2));
  Alcotest.(check int) "s1 has one" 1 (List.length (Topology.neighbors topo 1))

let () =
  Alcotest.run "scotch_topo"
    [ ( "host",
        [ Alcotest.test_case "identity" `Quick test_host_identity;
          Alcotest.test_case "deliver strips+records" `Quick test_host_deliver_strips_and_records;
          Alcotest.test_case "send requires uplink" `Quick test_host_send_requires_uplink;
          Alcotest.test_case "delay tracking" `Quick test_host_delay_tracking;
          Alcotest.test_case "memory per flow" `Quick test_host_memory_per_flow ] );
      ( "middlebox",
        [ Alcotest.test_case "stateful" `Quick test_middlebox_stateful;
          Alcotest.test_case "rejects encapsulated" `Quick test_middlebox_rejects_encapsulated ] );
      ( "topology",
        [ Alcotest.test_case "shortest path on line" `Quick test_shortest_path_line;
          Alcotest.test_case "route to host" `Quick test_route_to_host;
          Alcotest.test_case "host attachment" `Quick test_host_attachment;
          Alcotest.test_case "end-to-end forwarding" `Quick test_end_to_end_forwarding;
          Alcotest.test_case "tunnel to host" `Quick test_tunnel_to_host;
          Alcotest.test_case "switch tunnel duplex" `Quick test_tunnel_between_switches_duplex;
          Alcotest.test_case "duplicate registration" `Quick test_duplicate_registration_rejected;
          Alcotest.test_case "neighbors" `Quick test_neighbors ] ) ]
