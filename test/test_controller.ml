(* Tests for Scotch_controller: connection, message dispatch, xid-routed
   replies, Packet-In rate metering, heartbeats, and the reactive
   routing application end to end. *)

open Scotch_switch
open Scotch_topo
open Scotch_openflow
open Scotch_packet
module C = Scotch_controller.Controller

let fast_profile =
  { Profile.open_vswitch with Profile.forward_latency = 0.0; datapath_pps = 1e9 }

(* single switch, two hosts, controller (no app unless added) *)
let rig () =
  let e = Scotch_sim.Engine.create () in
  let topo = Topology.create e in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:fast_profile () in
  Topology.add_switch topo sw;
  let a = Host.create e ~id:1 ~name:"a" in
  let b = Host.create e ~id:2 ~name:"b" in
  Topology.add_host topo a;
  Topology.add_host topo b;
  Topology.attach_host topo a sw ~port:1;
  Topology.attach_host topo b sw ~port:2;
  let ctrl = C.create e topo in
  (e, topo, sw, a, b, ctrl)

let mk_packet ?(flow_id = 1) ?(src_port = 1000) ~src ~dst () =
  Packet.tcp_syn ~flow_id ~created:0.0 ~src_mac:(Host.mac src) ~dst_mac:(Host.mac dst)
    ~ip_src:(Host.ip src) ~ip_dst:(Host.ip dst) ~src_port ~dst_port:80 ()

let test_connect_duplicate () =
  let _, _, sw, _, _, ctrl = rig () in
  ignore (C.connect ctrl sw ~latency:0.001);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (C.connect ctrl sw ~latency:0.001);
       false
     with Invalid_argument _ -> true)

let test_install_reaches_switch () =
  let e, _, sw, a, b, ctrl = rig () in
  let h = C.connect ctrl sw ~latency:0.001 in
  C.install ctrl h ~priority:10
    ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ~src:a ~dst:b ())))
    ~instructions:(Of_action.output (Of_types.Port_no.Physical 2))
    ();
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "rule installed" 1 (Flow_table.size (Switch.table sw 0) ~now:1.0);
  Alcotest.(check int) "flow_mods counter" 1 (C.counters ctrl).C.flow_mods

let test_uninstall () =
  let e, _, sw, a, b, ctrl = rig () in
  let h = C.connect ctrl sw ~latency:0.001 in
  let m = Of_match.exact_flow (Packet.flow_key (mk_packet ~src:a ~dst:b ())) in
  C.install ctrl h ~priority:10 ~match_:m
    ~instructions:(Of_action.output (Of_types.Port_no.Physical 2))
    ();
  Scotch_sim.Engine.run e;
  C.uninstall ctrl h ~match_:m ();
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "rule removed" 0 (Flow_table.size (Switch.table sw 0) ~now:1.0)

let test_request_reply_xid () =
  let e, _, sw, a, b, ctrl = rig () in
  let h = C.connect ctrl sw ~latency:0.001 in
  let m = Of_match.exact_flow (Packet.flow_key (mk_packet ~src:a ~dst:b ())) in
  C.install ctrl h ~priority:10 ~match_:m
    ~instructions:(Of_action.output (Of_types.Port_no.Physical 2))
    ();
  Scotch_sim.Engine.run e;
  let got = ref None in
  C.request ctrl h ~deadline:1.0
    (Of_msg.Flow_stats_request
       { Of_msg.Stats.table_id = Of_msg.Stats.all_tables; match_ = Of_match.wildcard })
    (fun payload -> got := Some payload);
  Scotch_sim.Engine.run e;
  match !got with
  | Some (Of_msg.Flow_stats_reply stats) ->
    Alcotest.(check int) "the installed rule" 1 (List.length stats)
  | _ -> Alcotest.fail "no reply routed"

let test_packet_in_dispatch_order () =
  let e, _, sw, a, b, ctrl = rig () in
  let log = ref [] in
  C.register_app ctrl
    (C.app
       ~packet_in:(fun _ _ ->
         log := "first" :: !log;
         false)
       ());
  C.register_app ctrl
    (C.app
       ~packet_in:(fun _ _ ->
         log := "second" :: !log;
         true)
       ());
  C.register_app ctrl
    (C.app
       ~packet_in:(fun _ _ ->
         log := "third" :: !log;
         true)
       ());
  let h = C.connect ctrl sw ~latency:0.001 in
  Scotch_controller.Routing.install_table_miss ctrl h;
  Scotch_sim.Engine.run e;
  Switch.receive sw ~in_port:1 (mk_packet ~src:a ~dst:b ());
  Scotch_sim.Engine.run e;
  Alcotest.(check (list string)) "chain stops at handler" [ "first"; "second" ] (List.rev !log);
  Alcotest.(check int) "packet_ins counted" 1 (C.counters ctrl).C.packet_ins;
  Alcotest.(check int) "none unhandled" 0 (C.counters ctrl).C.unhandled_packet_ins

let test_unhandled_packet_in () =
  let e, _, sw, a, b, ctrl = rig () in
  let h = C.connect ctrl sw ~latency:0.001 in
  Scotch_controller.Routing.install_table_miss ctrl h;
  Scotch_sim.Engine.run e;
  Switch.receive sw ~in_port:1 (mk_packet ~src:a ~dst:b ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "unhandled counted" 1 (C.counters ctrl).C.unhandled_packet_ins

let test_pin_rate_meter () =
  let e, _, sw, a, b, ctrl = rig () in
  let h = C.connect ctrl sw ~latency:0.001 in
  Scotch_controller.Routing.install_table_miss ctrl h;
  Scotch_sim.Engine.run e;
  (* 50 distinct new flows in 0.5 s -> rate ~ 50/s over a 1 s window *)
  for i = 1 to 50 do
    Scotch_sim.Engine.schedule_at e ~at:(0.5 +. (0.01 *. float_of_int i)) (fun () ->
        Switch.receive sw ~in_port:1 (mk_packet ~flow_id:i ~src_port:(1000 + i) ~src:a ~dst:b ()))
  done;
  Scotch_sim.Engine.run ~until:1.1 e;
  let rate = C.pin_rate ctrl h in
  Alcotest.(check bool) "rate ~50/s" true (rate > 40.0 && rate <= 55.0)

let test_heartbeat_detects_death () =
  let e, _, sw, _, _, ctrl = rig () in
  let died = ref [] in
  C.register_app ctrl (C.app ~switch_dead:(fun s -> died := s.C.dpid :: !died) ());
  let _h = C.connect ctrl sw ~latency:0.001 in
  C.start_heartbeat ctrl ~period:0.5 ~timeout:1.5;
  (* healthy for 3 s, then the agent dies *)
  Scotch_sim.Engine.schedule_at e ~at:3.0 (fun () -> Switch.set_failed sw true);
  Scotch_sim.Engine.run ~until:3.0 e;
  Alcotest.(check (list int)) "alive so far" [] !died;
  Scotch_sim.Engine.run ~until:6.0 e;
  Alcotest.(check (list int)) "death detected once" [ 1 ] !died

(* ------------------------------------------------------------------ *)
(* Reactive routing app *)

let test_routing_end_to_end () =
  let e, _, sw, a, b, ctrl = rig () in
  let routing = Scotch_controller.Routing.create ctrl in
  C.register_app ctrl (Scotch_controller.Routing.app routing);
  let h = C.connect ctrl sw ~latency:0.001 in
  Scotch_controller.Routing.install_table_miss ctrl h;
  Scotch_sim.Engine.run e;
  Switch.receive sw ~in_port:1 (mk_packet ~src:a ~dst:b ());
  Scotch_sim.Engine.run e;
  (* first packet delivered by Packet-Out *)
  Alcotest.(check int) "first packet delivered" 1 (Host.received_packets b);
  Alcotest.(check int) "flow admitted" 1 (Scotch_controller.Routing.flows_admitted routing);
  (* subsequent packet forwarded by the installed rule, no new Packet-In *)
  let pins_before = (C.counters ctrl).C.packet_ins in
  Switch.receive sw ~in_port:1 (mk_packet ~src:a ~dst:b ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "second packet delivered" 2 (Host.received_packets b);
  Alcotest.(check int) "no extra packet-in" pins_before (C.counters ctrl).C.packet_ins

let test_routing_unroutable () =
  let e, _, sw, a, _, ctrl = rig () in
  let routing = Scotch_controller.Routing.create ctrl in
  C.register_app ctrl (Scotch_controller.Routing.app routing);
  let h = C.connect ctrl sw ~latency:0.001 in
  Scotch_controller.Routing.install_table_miss ctrl h;
  Scotch_sim.Engine.run e;
  (* destination 203.0.113.1 is not attached anywhere *)
  let pkt =
    Packet.tcp_syn ~flow_id:9 ~created:0.0 ~src_mac:(Host.mac a) ~dst_mac:Mac.broadcast
      ~ip_src:(Host.ip a) ~ip_dst:(Ipv4_addr.make 203 0 113 1) ~src_port:5 ~dst_port:80 ()
  in
  Switch.receive sw ~in_port:1 pkt;
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "unroutable counted" 1 (Scotch_controller.Routing.flows_unroutable routing)

let test_routing_ignores_tunneled () =
  let e, _, sw, a, b, ctrl = rig () in
  let routing = Scotch_controller.Routing.create ctrl in
  C.register_app ctrl (Scotch_controller.Routing.app routing);
  let h = C.connect ctrl sw ~latency:0.001 in
  ignore h;
  Scotch_sim.Engine.run e;
  (* simulate a tunneled Packet-In: the routing app must not claim it *)
  let pi =
    Of_msg.Packet_in.make ~tunnel_id:5 ~reason:Of_types.Packet_in_reason.No_match ~in_port:1
      (mk_packet ~src:a ~dst:b ())
  in
  Alcotest.(check bool) "left to the Scotch app" false
    (Scotch_controller.Routing.handle_packet_in routing (C.switch_exn ctrl 1) pi)

let () =
  Alcotest.run "scotch_controller"
    [ ( "core",
        [ Alcotest.test_case "duplicate connect" `Quick test_connect_duplicate;
          Alcotest.test_case "install reaches switch" `Quick test_install_reaches_switch;
          Alcotest.test_case "uninstall" `Quick test_uninstall;
          Alcotest.test_case "request/reply xid" `Quick test_request_reply_xid;
          Alcotest.test_case "dispatch order" `Quick test_packet_in_dispatch_order;
          Alcotest.test_case "unhandled packet-in" `Quick test_unhandled_packet_in;
          Alcotest.test_case "pin rate meter" `Quick test_pin_rate_meter;
          Alcotest.test_case "heartbeat death detection" `Quick test_heartbeat_detects_death ] );
      ( "routing",
        [ Alcotest.test_case "reactive end-to-end" `Quick test_routing_end_to_end;
          Alcotest.test_case "unroutable" `Quick test_routing_unroutable;
          Alcotest.test_case "ignores tunneled" `Quick test_routing_ignores_tunneled ] ) ]
