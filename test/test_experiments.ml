(* Tests for Scotch_experiments: the report type, the reusable testbeds
   and small-scale smoke runs of the figure drivers (full-scale shape
   assertions live in test_integration.ml). *)

open Scotch_experiments
open Scotch_workload

(* ------------------------------------------------------------------ *)
(* Report *)

let fig =
  { Report.id = "t";
    title = "test";
    x_label = "x";
    y_label = "y";
    series =
      [ { Report.label = "a"; points = [ (1.0, 10.0); (2.0, 20.0) ] };
        { Report.label = "b"; points = [ (1.0, 5.0); (3.0, 15.0) ] } ] }

let test_report_lookups () =
  let a = Report.series_exn fig "a" in
  Alcotest.(check (float 1e-9)) "value_at" 20.0 (Report.value_at a 2.0);
  Alcotest.(check (float 1e-9)) "last_y" 20.0 (Report.last_y a);
  Alcotest.(check (float 1e-9)) "max_y" 20.0 (Report.max_y a);
  Alcotest.(check (float 1e-9)) "min_y" 10.0 (Report.min_y a);
  Alcotest.(check bool) "missing series raises" true
    (try
       ignore (Report.series_exn fig "zzz");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing x raises" true
    (try
       ignore (Report.value_at a 99.0);
       false
     with Invalid_argument _ -> true)

let test_report_table () =
  let tbl = Report.to_table fig in
  let s = Scotch_util.Table_printer.render tbl in
  (* union of x values: 1, 2, 3 -> header + separator + 3 rows *)
  Alcotest.(check int) "rows" 5 (List.length (String.split_on_char '\n' (String.trim s)))

(* ------------------------------------------------------------------ *)
(* Testbeds *)

let test_success_bins () =
  let bins = Testbed.success_bins ~bin_width:2.0 ~until:7.0 in
  (* bin [0,2) holds 2 of 3 delivered, [2,4) is empty, [4,6) and [6,7)
     one launch each; the launches at 7 and 9 fall in no bin *)
  let flows =
    [ (5.0, true); (0.5, true); (7.0, true); (1.9, false); (9.0, true); (6.5, false);
      (0.0, true) ]
  in
  Alcotest.(check (list (pair (float 1e-12) (float 1e-12))))
    "per-bin fractions, bin order, empty bin skipped"
    [ (0.0, 2.0 /. 3.0); (4.0, 1.0); (6.0, 0.0) ]
    (bins flows);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "launches at or after until" [] (bins [ (7.0, true); (8.5, false) ])

let test_single_testbed_wiring () =
  let tb =
    Testbed.single ~profile:Scotch_switch.Profile.open_vswitch ~client_rate:50.0
      ~attack_rate:1.0 ()
  in
  Source.start tb.Testbed.client_src;
  Scotch_sim.Engine.run ~until:2.0 tb.Testbed.engine;
  (* reactive routing delivers on an uncongested OVS *)
  Alcotest.(check bool) "flows delivered" true (Scotch_topo.Host.flows_seen tb.Testbed.server > 80);
  Alcotest.(check (float 0.05)) "no failure" 0.0
    (Source.failure_fraction tb.Testbed.client_src ~dst:tb.Testbed.server ~until:1.5 ())

let test_scotch_net_wiring () =
  let net = Testbed.scotch_net ~num_vswitches:3 ~num_backups:1 ~num_clients:2 ~num_servers:2 () in
  (* all entities registered *)
  Alcotest.(check int) "vswitch array" 4 (Array.length net.Testbed.vswitches);
  Alcotest.(check int) "clients" 2 (Array.length net.Testbed.clients);
  Alcotest.(check int) "servers" 2 (Array.length net.Testbed.servers);
  Alcotest.(check int) "overlay size" 4 (Scotch_core.Overlay.size net.Testbed.overlay);
  Alcotest.(check int) "active pool" 3
    (List.length (Scotch_core.Overlay.active_vswitches net.Testbed.overlay));
  (* each physical switch has uplinks to every vswitch *)
  Alcotest.(check int) "edge uplinks" 4
    (List.length (Scotch_core.Overlay.uplinks_of net.Testbed.overlay Testbed.edge_dpid));
  (* every host is covered *)
  Scotch_topo.Topology.iter_hosts net.Testbed.topo (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "%s covered" (Scotch_topo.Host.name h))
        true
        (match Scotch_core.Overlay.cover_of_ip net.Testbed.overlay (Scotch_topo.Host.ip h) with
        | _ -> true
        | exception Not_found -> false));
  (* physical route exists from edge to every server *)
  Array.iter
    (fun srv ->
      Alcotest.(check bool) "route" true
        (Scotch_topo.Topology.route_to_host net.Testbed.topo ~src:Testbed.edge_dpid
           ~dst_ip:(Scotch_topo.Host.ip srv)
        <> None))
    net.Testbed.servers

let test_scotch_net_quiet_is_clean () =
  (* no traffic: monitors and heartbeats run without side effects *)
  let net = Testbed.scotch_net () in
  Testbed.run_until net ~until:5.0;
  let c = Scotch_core.Scotch.counters net.Testbed.app in
  Alcotest.(check int) "no activations" 0 c.Scotch_core.Scotch.activations;
  Alcotest.(check int) "no flows" 0 c.Scotch_core.Scotch.flows_seen;
  (* every vswitch still alive (heartbeats answered) *)
  Alcotest.(check int) "all alive" 4 (Scotch_core.Overlay.alive_count net.Testbed.overlay)

(* Overload's shed count covers the whole registered pool: a member
   added through [make_provision] (dpid 150+, outside
   [net.vswitches]) that drops a pin job shows up in [total_shed]. *)
let test_overload_shed_counts_provisioned () =
  let net =
    Testbed.scotch_net ~vswitch_profile:Overload.weak_vswitch ~config:Overload.scotch_config
      ~num_vswitches:Overload.num_active ~num_backups:Overload.num_backups ()
  in
  match Overload.make_provision net () with
  | None -> Alcotest.fail "provisioning budget exhausted"
  | Some sw ->
    let dev = sw.Scotch_controller.Controller.device in
    Alcotest.(check bool) "outside net.vswitches" true
      (not (Array.exists (fun v -> v == dev) net.Testbed.vswitches));
    let before = Overload.total_shed net in
    let ofa = Scotch_switch.Switch.ofa dev in
    (* a dead agent drops every Packet-In job it is offered *)
    Scotch_switch.Ofa.set_dead ofa true;
    Scotch_switch.Ofa.submit_packet_in ofa
      { Scotch_switch.Ofa.in_port = 1; tunnel_id = None;
        reason = Scotch_openflow.Of_types.Packet_in_reason.No_match;
        packet =
          Scotch_packet.Packet.tcp_syn ~flow_id:1 ~created:0.0
            ~src_mac:(Scotch_packet.Mac.of_host_id 1) ~dst_mac:(Scotch_packet.Mac.of_host_id 2)
            ~ip_src:(Scotch_packet.Ipv4_addr.make 10 0 0 1)
            ~ip_dst:(Scotch_packet.Ipv4_addr.make 10 0 0 2) ~src_port:1 ~dst_port:80 () };
    Alcotest.(check int) "pin drop counted" (before + 1) (Overload.total_shed net)

let test_fabric_wiring () =
  let fb = Testbed.fabric ~num_racks:3 ~hosts_per_rack:2 () in
  Alcotest.(check int) "tors" 3 (Array.length fb.Testbed.f_tors);
  Alcotest.(check int) "spines" 2 (Array.length fb.Testbed.f_spines);
  Alcotest.(check int) "vswitches" 6 (Array.length fb.Testbed.f_vswitches);
  (* any-to-any physical reachability across racks *)
  Array.iter
    (fun rack ->
      Array.iter
        (fun h ->
          Alcotest.(check bool) "reachable from tor0" true
            (Scotch_topo.Topology.route_to_host fb.Testbed.f_topo ~src:(Testbed.tor_dpid 0)
               ~dst_ip:(Scotch_topo.Host.ip h)
            <> None))
        rack)
    fb.Testbed.f_hosts;
  (* rack-local coverage: host (2,1) is covered by a rack-2 vswitch *)
  match
    Scotch_core.Overlay.cover_of_ip fb.Testbed.f_overlay
      (Scotch_topo.Host.ip fb.Testbed.f_hosts.(2).(1))
  with
  | vd -> Alcotest.(check bool) "rack-local cover" true (vd = 104 || vd = 105)
  | exception Not_found -> Alcotest.fail "host not covered"

let test_fabric_cross_rack_delivery () =
  let fb = Testbed.fabric ~num_racks:2 ~hosts_per_rack:2 () in
  let src = fb.Testbed.f_hosts.(0).(0) and dst = fb.Testbed.f_hosts.(1).(1) in
  let client = Testbed.fabric_client fb ~src ~dst ~rate:20.0 in
  Scotch_workload.Source.start client;
  Scotch_sim.Engine.run ~until:5.0 fb.Testbed.f_engine;
  Alcotest.(check bool) "cross-rack flows delivered" true
    (Scotch_workload.Source.failure_fraction client ~dst ~until:4.0 () < 0.1)

(* ------------------------------------------------------------------ *)
(* Figure drivers (smoke: tiny scales, structural checks) *)

let test_fig3_point () =
  let f =
    Fig3.run_point ~profile:Scotch_switch.Profile.open_vswitch ~attack_rate:200.0
      ~duration:5.0 ()
  in
  Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0);
  Alcotest.(check bool) "ovs absorbs small attack" true (f < 0.1)

let test_fig4_point () =
  let p =
    Fig4.run_point ~profile:Scotch_switch.Profile.pica8 ~rate:2000.0 ~duration:6.0 ()
  in
  (* saturated: the three rates coincide at the OFA ceiling *)
  Alcotest.(check bool) "pin ~ insertion" true
    (abs_float (p.Fig4.packet_in_rate -. p.Fig4.insertion_rate) < 10.0);
  Alcotest.(check bool) "insertion ~ success" true
    (abs_float (p.Fig4.insertion_rate -. p.Fig4.successful_rate) < 10.0);
  Alcotest.(check bool) "saturates near 140" true
    (p.Fig4.successful_rate > 110.0 && p.Fig4.successful_rate < 160.0)

let test_fig9_points () =
  let low = Fig9.run_point ~profile:Scotch_switch.Profile.pica8 ~rate:100.0 ~duration:25.0 () in
  Alcotest.(check bool) "loss-free at 100/s" true (abs_float (low -. 100.0) < 3.0);
  let high = Fig9.run_point ~profile:Scotch_switch.Profile.pica8 ~rate:2000.0 ~duration:25.0 () in
  Alcotest.(check bool) "saturates near 950" true (high > 850.0 && high < 1050.0)

let test_fig10_knee () =
  let below =
    Fig10.run_point ~profile:Scotch_switch.Profile.pica8 ~insertion_rate:400.0
      ~data_rate:1000.0 ~duration:5.0 ()
  in
  let above =
    Fig10.run_point ~profile:Scotch_switch.Profile.pica8 ~insertion_rate:1500.0
      ~data_rate:1000.0 ~duration:5.0 ()
  in
  Alcotest.(check bool) "low loss below the knee" true (below < 0.1);
  Alcotest.(check bool) ">90% past the knee" true (above > 0.9)

let test_fig11_point () =
  let p = Fig11.run_point ~differentiate:true ~attack_rate:1000.0 ~duration:8.0 () in
  Alcotest.(check bool) "client keeps physical share" true (p.Fig11.physical_share > 0.5);
  Alcotest.(check bool) "client rarely fails" true (p.Fig11.failure < 0.15)

let test_fig12_variant () =
  let points, migrations = Fig12.run_variant ~migration:true ~duration:12.0 () in
  Alcotest.(check bool) "all elephants migrated" true (migrations >= Fig12.elephant_count);
  (* last bin at physical-path delay, first bin on the overlay *)
  (match (points, List.rev points) with
  | (t0, d0) :: _, (tn, dn) :: _ ->
    Alcotest.(check bool) "starts high" true (d0 > 0.3);
    Alcotest.(check bool) "ends low" true (dn < 0.25);
    Alcotest.(check bool) "time advances" true (tn > t0)
  | _ -> Alcotest.fail "no points")

let test_ablation_withdrawal_figure () =
  let fig = Ablation.run_withdrawal ~scale:0.7 () in
  let active = Report.series_exn fig "overlay active" in
  Alcotest.(check (float 1e-9)) "active early" 1.0 (Report.value_at active 3.0);
  Alcotest.(check (float 1e-9)) "inactive at the end" 0.0 (Report.last_y active)

(* Flow ids are counted per engine: a net run in alternating slices
   with another numbers its flows as it does alone. *)
let test_flow_ids_per_net () =
  let net_with_source seed =
    let net = Testbed.scotch_net ~seed () in
    let src = Testbed.client_source net ~i:0 ~rate:200.0 () in
    Source.start src;
    (net, src)
  in
  let ids src = List.rev_map (fun l -> l.Flow_gen.flow_id) (Source.launched src) in
  let a, src_a = net_with_source 1 in
  let b, src_b = net_with_source 2 in
  for slice = 1 to 10 do
    let until = 0.05 *. float_of_int slice in
    Testbed.run_until a ~until;
    Testbed.run_until b ~until
  done;
  let alone, src_alone = net_with_source 2 in
  Testbed.run_until alone ~until:0.5;
  Alcotest.(check bool) "net A launched flows" true (Source.launched_count src_a > 0);
  Alcotest.(check bool) "net B launched flows" true (Source.launched_count src_b > 0);
  Alcotest.(check (list int)) "net B's ids as alone" (ids src_alone) (ids src_b)

let () =
  Alcotest.run "scotch_experiments"
    [ ( "report",
        [ Alcotest.test_case "lookups" `Quick test_report_lookups;
          Alcotest.test_case "table layout" `Quick test_report_table ] );
      ( "testbeds",
        [ Alcotest.test_case "success bins" `Quick test_success_bins;
          Alcotest.test_case "single wiring" `Quick test_single_testbed_wiring;
          Alcotest.test_case "scotch_net wiring" `Quick test_scotch_net_wiring;
          Alcotest.test_case "quiet network is clean" `Quick test_scotch_net_quiet_is_clean;
          Alcotest.test_case "overload shed counts provisioned members" `Quick
            test_overload_shed_counts_provisioned;
          Alcotest.test_case "fabric wiring" `Quick test_fabric_wiring;
          Alcotest.test_case "fabric cross-rack delivery" `Quick test_fabric_cross_rack_delivery;
          Alcotest.test_case "flow ids per net" `Quick test_flow_ids_per_net ] );
      ( "figures",
        [ Alcotest.test_case "fig3 point" `Slow test_fig3_point;
          Alcotest.test_case "fig4 point" `Slow test_fig4_point;
          Alcotest.test_case "fig9 points" `Slow test_fig9_points;
          Alcotest.test_case "fig10 knee" `Slow test_fig10_knee;
          Alcotest.test_case "fig11 point" `Slow test_fig11_point;
          Alcotest.test_case "fig12 variant" `Slow test_fig12_variant;
          Alcotest.test_case "withdrawal figure" `Slow test_ablation_withdrawal_figure ] ) ]
