(* Integration tests: the paper's qualitative claims, each exercised on
   a small end-to-end simulation.

   These are the behaviours the figures quantify:
   - a reactive network collapses under spoofed-flow floods (§3.2);
   - Scotch absorbs the same flood (§4);
   - the overlay activates under load and withdraws after it (§5.5);
   - elephants migrate onto physical paths (§5.3);
   - capacity grows with the vswitch pool (§5.1);
   - middlebox policy holds on both paths (§5.4);
   - a vswitch failure is masked (§5.6);
   - runs are deterministic per seed. *)

open Scotch_experiments
open Scotch_workload
open Scotch_core

let run_failure ~scotch ~attack_rate ~duration ?(seed = 42) () =
  let net = Testbed.scotch_net ~seed ~scotch_enabled:scotch () in
  let client = Testbed.client_source net ~i:0 ~rate:10.0 () in
  let attack = Testbed.attack_source net ~rate:attack_rate () in
  Source.start client;
  Source.start attack;
  Testbed.run_until net ~until:duration;
  ( net,
    Source.failure_fraction client ~dst:net.Testbed.server ~since:2.0 ~until:(duration -. 1.0)
      () )

let test_reactive_collapses () =
  let _, low = run_failure ~scotch:false ~attack_rate:50.0 ~duration:10.0 () in
  let _, high = run_failure ~scotch:false ~attack_rate:2000.0 ~duration:10.0 () in
  Alcotest.(check bool) "low attack: low failure" true (low < 0.2);
  Alcotest.(check bool) "high attack: collapse" true (high > 0.8);
  Alcotest.(check bool) "monotone degradation" true (high > low)

let test_scotch_mitigates () =
  let net, failure = run_failure ~scotch:true ~attack_rate:2000.0 ~duration:12.0 () in
  Alcotest.(check bool) "client failure < 10%" true (failure < 0.1);
  let c = Scotch.counters net.Testbed.app in
  Alcotest.(check bool) "overlay activated" true (c.Scotch.activations >= 1);
  Alcotest.(check bool) "flows went over the overlay" true (c.Scotch.flows_overlay > 1000);
  (* full visibility: the controller saw (nearly) every attack flow *)
  Alcotest.(check bool) "controller kept flow visibility" true (c.Scotch.flows_seen > 10_000)

let test_activation_and_withdrawal () =
  let net = Testbed.scotch_net () in
  let client = Testbed.client_source net ~i:0 ~rate:10.0 () in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start client;
  Source.start attack;
  ignore
    (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:8.0 (fun () -> Source.stop attack));
  Testbed.run_until net ~until:4.0;
  Alcotest.(check bool) "active during attack" true
    (Scotch.is_active net.Testbed.app Testbed.edge_dpid);
  Testbed.run_until net ~until:20.0;
  Alcotest.(check bool) "withdrawn after attack" false
    (Scotch.is_active net.Testbed.app Testbed.edge_dpid);
  let c = Scotch.counters net.Testbed.app in
  Alcotest.(check bool) "activated at least once" true (c.Scotch.activations >= 1);
  Alcotest.(check bool) "withdrew at least once" true (c.Scotch.withdrawals >= 1);
  (* and the network still works afterwards *)
  let probe = Testbed.client_source net ~i:0 ~rate:20.0 () in
  Source.start probe;
  Testbed.run_until net ~until:25.0;
  Alcotest.(check bool) "healthy after withdrawal" true
    (Source.failure_fraction probe ~dst:net.Testbed.server ~until:24.0 () < 0.1)

let test_elephant_migration () =
  let config = { Config.default with Config.overlay_threshold = 0 } in
  let net = Testbed.scotch_net ~config () in
  let src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  let l =
    Source.launch_flow src
      ~spec:{ Flow_gen.packets = 30_000; payload = 1000; interval = 0.0005 }
  in
  Testbed.run_until net ~until:8.0;
  let db = Scotch.db net.Testbed.app in
  (match Flow_info_db.find db l.Flow_gen.key with
  | Some e ->
    Alcotest.(check bool) "elephant on physical path" true
      (e.Flow_info_db.kind = Flow_info_db.Physical)
  | None -> Alcotest.fail "elephant not tracked");
  let c = Scotch.counters net.Testbed.app in
  Alcotest.(check bool) "migration completed" true (c.Scotch.migrations_completed >= 1);
  (* delivery never stopped *)
  match Scotch_topo.Host.flow_record net.Testbed.server l.Flow_gen.flow_id with
  | Some r -> Alcotest.(check bool) "goodput" true (r.Scotch_topo.Host.packets > 10_000)
  | None -> Alcotest.fail "elephant not delivered"

let test_no_migration_stays_on_overlay () =
  let config =
    { Config.default with Config.overlay_threshold = 0; migration_enabled = false }
  in
  let net = Testbed.scotch_net ~config () in
  let src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  let l =
    Source.launch_flow src
      ~spec:{ Flow_gen.packets = 30_000; payload = 1000; interval = 0.0005 }
  in
  Testbed.run_until net ~until:8.0;
  match Flow_info_db.find (Scotch.db net.Testbed.app) l.Flow_gen.key with
  | Some e -> (
    match e.Flow_info_db.kind with
    | Flow_info_db.Overlay _ -> ()
    | _ -> Alcotest.fail "expected the flow to stay on the overlay")
  | None -> Alcotest.fail "flow not tracked"

let test_capacity_scales_with_pool () =
  let success n =
    Fig13.run_point ~num_vswitches:n ~duration:3.0 ()
  in
  let s1 = success 1 and s4 = success 4 in
  Alcotest.(check bool) "4 vswitches > 2x of 1" true (s4 > 2.0 *. s1);
  Alcotest.(check bool) "one vswitch still beats the OFA alone" true (s1 > 1000.0)

let test_overlay_delay_higher_than_physical () =
  let fig = Fig14.run () in
  let phys = Report.series_exn fig "physical path" in
  let over = Report.series_exn fig "overlay path" in
  Alcotest.(check bool) "overlay median > 2x physical median" true
    (Report.value_at over 50.0 > 2.0 *. Report.value_at phys 50.0)

let test_policy_consistency () =
  let net = Testbed.scotch_net () in
  let server_ip = Scotch_topo.Host.ip net.Testbed.server in
  let fw, _ =
    Testbed.add_firewall_segment net ~classify:(fun key ->
        Scotch_packet.Ipv4_addr.equal key.Scotch_packet.Flow_key.ip_dst server_ip)
  in
  let flood =
    let rng = Scotch_util.Rng.split (Scotch_sim.Engine.rng net.Testbed.engine) in
    Source.create net.Testbed.engine ~rng ~host:net.Testbed.clients.(0)
      ~dst:net.Testbed.server ~rate:800.0 ~spoof_sources:true ()
  in
  Source.start flood;
  let src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  let l = ref None in
  ignore
    (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:3.0 (fun () ->
         l :=
           Some
             (Source.launch_flow src
                ~spec:{ Flow_gen.packets = 10_000; payload = 1000; interval = 0.0005 })));
  Testbed.run_until net ~until:9.0;
  (* the long flow was delivered, entirely through the firewall *)
  let l = Option.get !l in
  (match Scotch_topo.Host.flow_record net.Testbed.server l.Flow_gen.flow_id with
  | Some r -> Alcotest.(check bool) "delivered" true (r.Scotch_topo.Host.packets > 5000)
  | None -> Alcotest.fail "policy flow not delivered");
  Alcotest.(check int) "no tunnel headers reach the middlebox" 0
    (Scotch_topo.Middlebox.encap_violations fw);
  Alcotest.(check bool) "at most a couple of in-flight races" true
    (Scotch_topo.Middlebox.state_violations fw <= 5);
  Alcotest.(check bool) "firewall saw the traffic" true
    (Scotch_topo.Middlebox.processed fw > 5000)

let test_vswitch_failure_masked () =
  let net = Testbed.scotch_net ~num_vswitches:4 () in
  let client = Testbed.client_source net ~i:0 ~rate:10.0 () in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start client;
  Source.start attack;
  (* kill one active vswitch mid-attack *)
  ignore
    (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:5.0 (fun () ->
         Scotch_switch.Switch.set_failed net.Testbed.vswitches.(0) true));
  Testbed.run_until net ~until:20.0;
  let c = Scotch.counters net.Testbed.app in
  Alcotest.(check bool) "failure detected" true (c.Scotch.vswitch_failures >= 1);
  Alcotest.(check int) "overlay lost one member" 4 (Overlay.size net.Testbed.overlay + 0);
  Alcotest.(check int) "three alive" 3 (Overlay.alive_count net.Testbed.overlay);
  (* client flows keep working after the heartbeat notices (a few seconds) *)
  let failure_after =
    Source.failure_fraction client ~dst:net.Testbed.server ~since:10.0 ~until:19.0 ()
  in
  Alcotest.(check bool) "client unaffected after failover" true (failure_after < 0.1)

let test_backup_promotion_end_to_end () =
  let net = Testbed.scotch_net ~num_vswitches:2 ~num_backups:1 () in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start attack;
  ignore
    (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:5.0 (fun () ->
         Scotch_switch.Switch.set_failed net.Testbed.vswitches.(0) true));
  Testbed.run_until net ~until:15.0;
  (* the backup (dpid 102) was promoted into active duty *)
  match Overlay.vswitch net.Testbed.overlay (Testbed.vswitch_dpid 2) with
  | Some v -> Alcotest.(check bool) "backup promoted" false v.Overlay.is_backup
  | None -> Alcotest.fail "backup missing"

let test_tcam_exhaustion () =
  (* a switch with a tiny table: insert failures are counted *)
  let profile = { Scotch_switch.Profile.pica8 with Scotch_switch.Profile.flow_table_capacity = 50 } in
  let tb = Testbed.single ~profile ~client_rate:100.0 ~attack_rate:1.0 () in
  Source.start tb.Testbed.client_src;
  Scotch_sim.Engine.run ~until:5.0 tb.Testbed.engine;
  Alcotest.(check bool) "insert failures under TCAM pressure" true
    (Scotch_switch.Flow_table.insert_failures (Scotch_switch.Switch.table tb.Testbed.switch 0)
    > 0)

let test_live_vswitch_addition () =
  (* §5.6: grow the pool under load; new capacity is used immediately *)
  let config =
    { Config.default with Config.vswitches_per_switch = 8; activate_pin_rate = 50.0 }
  in
  let net = Testbed.scotch_net ~config ~num_vswitches:1 () in
  let attack = Testbed.attack_source net ~rate:9000.0 () in
  Source.start attack;
  Testbed.run_until net ~until:3.0;
  let before = Scotch_topo.Host.flows_seen net.Testbed.server in
  Testbed.run_until net ~until:5.0;
  let rate_before =
    float_of_int (Scotch_topo.Host.flows_seen net.Testbed.server - before) /. 2.0
  in
  (* join two more vswitches live *)
  for i = 1 to 2 do
    let v =
      Scotch_switch.Switch.create net.Testbed.engine ~dpid:(Testbed.vswitch_dpid i)
        ~name:(Printf.sprintf "vsw-live%d" i)
        ~profile:Scotch_switch.Profile.scotch_vswitch ()
    in
    Scotch_topo.Topology.add_switch net.Testbed.topo v;
    ignore
      (Scotch.add_vswitch_live net.Testbed.app v ~channel_latency:Testbed.control_latency
         ~as_backup:false);
    (* cover the hosts from the new vswitch too *)
    Scotch_topo.Topology.iter_hosts net.Testbed.topo (fun h ->
        Overlay.cover_host net.Testbed.overlay ~vswitch_dpid:(Scotch_switch.Switch.dpid v) h)
  done;
  Testbed.run_until net ~until:7.0;
  let mid = Scotch_topo.Host.flows_seen net.Testbed.server in
  Testbed.run_until net ~until:9.0;
  let rate_after = float_of_int (Scotch_topo.Host.flows_seen net.Testbed.server - mid) /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "pool growth raises capacity (%.0f -> %.0f)" rate_before rate_after)
    true
    (rate_after > 1.5 *. rate_before)

let test_repeated_activation_cycles () =
  (* two attack waves: the overlay must activate and withdraw twice *)
  let net = Testbed.scotch_net () in
  let client = Testbed.client_source net ~i:0 ~rate:10.0 () in
  Source.start client;
  let wave ~from ~till =
    let a = Testbed.attack_source net ~rate:1500.0 () in
    ignore (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:from (fun () -> Source.start a));
    ignore (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:till (fun () -> Source.stop a))
  in
  wave ~from:1.0 ~till:6.0;
  wave ~from:20.0 ~till:25.0;
  Testbed.run_until net ~until:4.0;
  Alcotest.(check bool) "active in wave 1" true
    (Scotch.is_active net.Testbed.app Testbed.edge_dpid);
  Testbed.run_until net ~until:16.0;
  Alcotest.(check bool) "withdrawn between waves" false
    (Scotch.is_active net.Testbed.app Testbed.edge_dpid);
  Testbed.run_until net ~until:23.0;
  Alcotest.(check bool) "active in wave 2" true
    (Scotch.is_active net.Testbed.app Testbed.edge_dpid);
  Testbed.run_until net ~until:38.0;
  Alcotest.(check bool) "withdrawn at the end" false
    (Scotch.is_active net.Testbed.app Testbed.edge_dpid);
  (* the client survived both waves *)
  Alcotest.(check bool) "client failure low across cycles" true
    (Source.failure_fraction client ~dst:net.Testbed.server ~since:1.0 ~until:36.0 () < 0.1)

let test_fabric_destination_protection () =
  (* §1: new rules go only to vswitches, so the destination-side switch
     is protected too *)
  let p_scotch = Exp_fabric.run_point ~scotch:true ~attack_rate:2000.0 ~duration:8.0 () in
  let p_base = Exp_fabric.run_point ~scotch:false ~attack_rate:2000.0 ~duration:8.0 () in
  Alcotest.(check bool) "scotch client survives" true (p_scotch.Exp_fabric.failure < 0.25);
  Alcotest.(check bool) "baseline collapses" true (p_base.Exp_fabric.failure > 0.6);
  Alcotest.(check bool) "dst ToR shielded (>4x fewer installs)" true
    (p_base.Exp_fabric.dst_tor_installs > 4.0 *. p_scotch.Exp_fabric.dst_tor_installs)

let test_determinism () =
  let _, f1 = run_failure ~scotch:true ~attack_rate:1000.0 ~duration:6.0 ~seed:7 () in
  let _, f2 = run_failure ~scotch:true ~attack_rate:1000.0 ~duration:6.0 ~seed:7 () in
  Alcotest.(check (float 0.0)) "identical runs for identical seeds" f1 f2

(* The fabric under continuous verification, as the fabric-verify
   benchmark builds it: three constant-rate spoofing attackers and four
   clients converging on one host, so flows cross ToR, spine and ToR,
   installed destination-first, while every switch update feeds the
   incremental verifier.  A change to the new-flow path can be right on
   a single edge switch and still wrong here.  Each seed runs twice in
   one process: the verifier must report no error and no audit
   mismatch, and the second run must repeat the first's outcomes, so
   no state survives from one simulation into the next. *)
let fabric_verify_outcome ~seed ~duration =
  let config = { Config.default with Config.verify = Config.Continuous } in
  let fb = Testbed.fabric ~seed ~config () in
  let engine = fb.Testbed.f_engine in
  let dst = fb.Testbed.f_hosts.(3).(0) in
  let attackers =
    List.map
      (fun r ->
        Source.create engine ~rng:(Scotch_util.Rng.split (Scotch_sim.Engine.rng engine))
          ~host:fb.Testbed.f_hosts.(r).(1) ~dst ~rate:667.0 ~arrival:Source.Constant
          ~spoof_sources:true ())
      [ 0; 1; 2 ]
  in
  let clients =
    List.init 4 (fun r -> Testbed.fabric_client fb ~src:fb.Testbed.f_hosts.(r).(2) ~dst ~rate:50.0)
  in
  List.iter Source.start (attackers @ clients);
  Scotch_sim.Engine.run ~until:duration engine;
  let hooks = Option.get fb.Testbed.f_verify in
  let incr = Option.get (Scotch_verify.Hooks.incremental hooks) in
  let st = Scotch_verify.Incremental.stats incr in
  let errors =
    List.length (Scotch_verify.Diagnostic.errors (Scotch_verify.Incremental.diagnostics incr))
    + Scotch_verify.Hooks.error_count hooks
  in
  let c = Scotch.counters fb.Testbed.f_app in
  let cc = Scotch_controller.Controller.counters fb.Testbed.f_ctrl in
  let delivered = ref 0 in
  Scotch_topo.Topology.iter_hosts fb.Testbed.f_topo (fun h ->
      delivered := !delivered + Scotch_topo.Host.received_packets h);
  ( (errors, st.Scotch_verify.Incremental.equiv_mismatches),
    [ st.Scotch_verify.Incremental.updates; st.Scotch_verify.Incremental.equiv_checks;
      cc.Scotch_controller.Controller.packet_ins; cc.Scotch_controller.Controller.flow_mods;
      c.Scotch.flows_seen; c.Scotch.flows_overlay; c.Scotch.flows_physical;
      c.Scotch.flows_dropped; !delivered;
      List.fold_left (fun n s -> n + Source.launched_count s) 0 (attackers @ clients) ] )

let test_fabric_verify_clean_and_repeatable () =
  List.iter
    (fun seed ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let verdict, outcome = fabric_verify_outcome ~seed ~duration:2.0 in
      let verdict', outcome' = fabric_verify_outcome ~seed ~duration:2.0 in
      Alcotest.(check (pair int int)) (name "verify errors, audit mismatches") (0, 0) verdict;
      Alcotest.(check (pair int int)) (name "second run: errors, mismatches") (0, 0) verdict';
      Alcotest.(check (list int)) (name "second run repeats the first") outcome outcome')
    [ 1; 5; 7; 42 ]

let test_dedicated_port_capped_by_r () =
  let r = Ablation.run_dedicated_point ~offered:2000.0 ~duration:4.0 () in
  let rr = Config.rule_rate in
  Alcotest.(check bool) "dedicated port caps near R" true (r > 0.6 *. rr && r < 1.5 *. rr)

let () =
  Alcotest.run "integration"
    [ ( "control-plane overload",
        [ Alcotest.test_case "reactive collapses (fig3)" `Slow test_reactive_collapses;
          Alcotest.test_case "scotch mitigates" `Slow test_scotch_mitigates;
          Alcotest.test_case "tcam exhaustion" `Quick test_tcam_exhaustion ] );
      ( "life cycle",
        [ Alcotest.test_case "activation + withdrawal (§5.5)" `Slow test_activation_and_withdrawal;
          Alcotest.test_case "determinism" `Slow test_determinism ] );
      ( "migration",
        [ Alcotest.test_case "elephant migrates (§5.3)" `Slow test_elephant_migration;
          Alcotest.test_case "stays on overlay without migration" `Slow
            test_no_migration_stays_on_overlay ] );
      ( "scaling",
        [ Alcotest.test_case "capacity scales with pool (§5.1)" `Slow test_capacity_scales_with_pool;
          Alcotest.test_case "overlay delay premium (§4.1)" `Slow
            test_overlay_delay_higher_than_physical;
          Alcotest.test_case "dedicated port capped by R (§4)" `Slow
            test_dedicated_port_capped_by_r ] );
      ( "policy",
        [ Alcotest.test_case "middlebox consistency (§5.4)" `Slow test_policy_consistency ] );
      ( "failure",
        [ Alcotest.test_case "vswitch failure masked (§5.6)" `Slow test_vswitch_failure_masked;
          Alcotest.test_case "backup promotion" `Slow test_backup_promotion_end_to_end ] );
      ( "life cycle 2",
        [ Alcotest.test_case "repeated activation cycles (§5.5)" `Slow
            test_repeated_activation_cycles ] );
      ( "fabric",
        [ Alcotest.test_case "destination-side protection (§1)" `Slow
            test_fabric_destination_protection;
          Alcotest.test_case "fabric under continuous verification" `Slow
            test_fabric_verify_clean_and_repeatable ] );
      ( "elasticity",
        [ Alcotest.test_case "live vswitch addition (§5.6)" `Slow test_live_vswitch_addition ] )
    ]
