(* Tests for Scotch_faults: fault values and plans, the §5.6 recovery
   path end-to-end (heartbeat-loss detection latency, backup-vswitch
   promotion, select-group rebalance after a kill) and bit-for-bit
   ledger determinism. *)

open Scotch_faults
open Scotch_experiments
open Scotch_workload
module C = Scotch_controller.Controller

(* ------------------------------------------------------------------ *)
(* Fault and Plan values *)

let test_fault_constructors_validate () =
  Alcotest.check_raises "negative time" (Invalid_argument "Fault.vswitch_crash: negative injection time")
    (fun () -> ignore (Fault.vswitch_crash ~at:(-1.0) 100));
  Alcotest.check_raises "bad factor" (Invalid_argument "Fault.ofa_slowdown: factor must exceed 1")
    (fun () -> ignore (Fault.ofa_slowdown ~at:1.0 ~duration:1.0 ~factor:0.5 1));
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Fault.channel_drop: probability must be in (0,1)") (fun () ->
      ignore (Fault.channel_drop ~at:1.0 ~duration:1.0 ~probability:1.5 1))

let test_plan_sorting_and_ids () =
  let p =
    Plan.of_list
      [ Fault.ofa_stall ~at:9.0 ~duration:1.0 1;
        Fault.vswitch_crash ~at:2.0 ~duration:5.0 100;
        Fault.stats_outage ~at:4.0 ~duration:1.0 ]
  in
  Alcotest.(check int) "length" 3 (Plan.length p);
  Alcotest.(check (list int)) "ids in injection order" [ 0; 1; 2 ]
    (List.map fst (Plan.faults p));
  Alcotest.(check (list (float 1e-9))) "sorted by time" [ 2.0; 4.0; 9.0 ]
    (List.map (fun (_, f) -> f.Fault.at) (Plan.faults p));
  Alcotest.(check (float 1e-9)) "last activity" 10.0 (Plan.last_activity p)

let test_plan_merge_renumbers () =
  let a = Plan.of_list [ Fault.vswitch_crash ~at:5.0 100 ] in
  let b = Plan.of_list [ Fault.vswitch_crash ~at:1.0 101 ] in
  let m = Plan.merge a b in
  Alcotest.(check (list int)) "renumbered" [ 0; 1 ] (List.map fst (Plan.faults m));
  Alcotest.(check int) "earlier fault first" 101 ((snd (List.hd (Plan.faults m))).Fault.target)

(* ------------------------------------------------------------------ *)
(* §5.6 recovery path, end to end *)

(* A scotch_net under enough spoofed-SYN load to activate the overlay,
   with one vswitch killed mid-activation and never revived. *)
let killed_net ?(seed = 42) ~kill_at ~until () =
  let net = Testbed.scotch_net ~seed ~num_vswitches:4 ~num_backups:2 () in
  let victim = Testbed.vswitch_dpid 0 in
  let plan = Plan.of_list [ Fault.vswitch_crash ~at:kill_at victim ] in
  let ledger = Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start attack;
  Testbed.run_until net ~until;
  (net, victim, Option.get (Ledger.find ledger 0))

let test_detection_latency () =
  let _, _, r = killed_net ~kill_at:6.0 ~until:14.0 () in
  match Ledger.detection_latency r with
  | None -> Alcotest.fail "heartbeat loss never detected"
  | Some d ->
    (* detection cannot beat the heartbeat timeout (3 s) and should land
       within one heartbeat period + echo round-trip slack after it *)
    Alcotest.(check bool) "not before the timeout" true (d >= 3.0);
    Alcotest.(check bool) "within timeout + period + slack" true (d <= 4.5)

let test_backup_promotion () =
  let net, victim, r = killed_net ~kill_at:6.0 ~until:14.0 () in
  (match r.Ledger.backup_promoted with
  | None -> Alcotest.fail "no backup promoted"
  | Some b ->
    Alcotest.(check bool) "promoted dpid is from the backup pool" true (b = 104 || b = 105));
  (* overlay bookkeeping: the victim is marked dead, pool size restored *)
  let overlay = net.Testbed.overlay in
  let alive_primaries = ref 0 in
  Scotch_core.Overlay.iter_vswitches overlay (fun v ->
      if v.Scotch_core.Overlay.alive && not v.Scotch_core.Overlay.is_backup then
        incr alive_primaries;
      if Scotch_switch.Switch.dpid v.Scotch_core.Overlay.vsw = victim then
        Alcotest.(check bool) "victim marked dead" false v.Scotch_core.Overlay.alive);
  Alcotest.(check int) "promotion restored the active pool" 4 !alive_primaries

let test_group_rebalance_after_kill () =
  let net, victim, r = killed_net ~kill_at:6.0 ~until:14.0 () in
  (match Ledger.time_to_rebalance r with
  | None -> Alcotest.fail "select groups never rebalanced"
  | Some t -> Alcotest.(check bool) "rebalance follows detection" true (t >= 3.0 && t < 6.0));
  (* the edge device's select group must no longer reference any tunnel
     port that leads to the dead vswitch *)
  let dead_ports =
    Scotch_core.Overlay.uplinks_of net.Testbed.overlay Testbed.edge_dpid
    |> List.filter_map (fun (vdpid, tid) ->
           if vdpid = victim then Some (Scotch_topo.Topology.tunnel_port_of_id tid) else None)
  in
  Alcotest.(check bool) "victim had uplink tunnels" true (dead_ports <> []);
  let open Scotch_openflow in
  List.iter
    (fun (g : Scotch_switch.Group_table.group) ->
      List.iter
        (fun (b : Of_msg.Group_mod.bucket) ->
          List.iter
            (function
              | Of_action.Output (Of_types.Port_no.Physical p) ->
                Alcotest.(check bool) "bucket avoids dead uplink" false (List.mem p dead_ports)
              | _ -> ())
            b.Of_msg.Group_mod.actions)
        g.Scotch_switch.Group_table.buckets)
    (Scotch_switch.Group_table.groups (Scotch_switch.Switch.group_table net.Testbed.edge));
  Alcotest.(check bool) "flows were lost during the outage" true (r.Ledger.flows_lost > 0)

let test_recovered_vswitch_rejoins_as_backup () =
  let net = Testbed.scotch_net ~num_vswitches:4 ~num_backups:2 () in
  let victim = Testbed.vswitch_dpid 0 in
  let plan = Plan.of_list [ Fault.vswitch_crash ~at:2.0 ~duration:4.0 victim ] in
  let ledger = Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan in
  Testbed.run_until net ~until:12.0;
  let r = Option.get (Ledger.find ledger 0) in
  Alcotest.(check bool) "cleared" true (r.Ledger.cleared_at <> None);
  Alcotest.(check bool) "device revived" false
    (Scotch_switch.Switch.is_failed net.Testbed.vswitches.(0));
  Scotch_core.Overlay.iter_vswitches net.Testbed.overlay (fun v ->
      if Scotch_switch.Switch.dpid v.Scotch_core.Overlay.vsw = victim then begin
        Alcotest.(check bool) "alive again" true v.Scotch_core.Overlay.alive;
        Alcotest.(check bool) "rejoined as backup" true v.Scotch_core.Overlay.is_backup
      end)

(* The data-path breaker's revive path: [Scotch.revive_vswitch] fires
   the recovery hook, so the continuous verifier resyncs exactly once,
   [Hooks.settle_delay] later, while an overlay activation adds no
   report of its own. *)
let test_revive_resyncs_verifier () =
  let module Sc = Scotch_core.Scotch in
  let module Hooks = Scotch_verify.Hooks in
  let config =
    { Scotch_core.Config.default with Scotch_core.Config.verify = Scotch_core.Config.Continuous }
  in
  let net = Testbed.scotch_net ~seed:42 ~config ~num_vswitches:4 ~num_backups:2 () in
  let app = net.Testbed.app in
  let v = Option.get net.Testbed.verify in
  let post_recovery () = List.length (Hooks.reports_of_phase v "post-recovery") in
  let victim = Testbed.vswitch_dpid 0 in
  Source.start (Testbed.attack_source net ~rate:1500.0 ());
  Testbed.run_until net ~until:4.0;
  Alcotest.(check bool) "overlay activated" true (Sc.is_active app Testbed.edge_dpid);
  Alcotest.(check int) "activation adds no report" 0 (post_recovery ());
  Sc.fail_vswitch app victim;
  Testbed.run_until net ~until:5.0;
  Alcotest.(check int) "failure adds no report" 0 (post_recovery ());
  Sc.revive_vswitch app victim;
  Testbed.run_until net ~until:(5.0 +. (2.0 *. Hooks.settle_delay));
  Alcotest.(check int) "one post-recovery report" 1 (post_recovery ());
  Alcotest.(check int) "no invariant errors" 0 (Hooks.error_count v)

(* ------------------------------------------------------------------ *)
(* Control-channel weather: seeded channel-drop and OFA-stall plans *)

let test_channel_drop_plan () =
  let net = Testbed.scotch_net ~seed:42 ~num_vswitches:4 ~num_backups:2 () in
  let plan =
    Plan.of_list
      [ Fault.channel_drop ~at:2.0 ~duration:6.0 ~probability:0.3 Testbed.edge_dpid ]
  in
  let ledger = Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start attack;
  Testbed.run_until net ~until:5.0;
  let sw = Option.get (C.switch net.Testbed.ctrl Testbed.edge_dpid) in
  Alcotest.(check (float 1e-9)) "drop probability applied mid-window" 0.3 sw.C.chan_drop_p;
  Testbed.run_until net ~until:12.0;
  Alcotest.(check (float 1e-9)) "impairment cleared" 0.0 sw.C.chan_drop_p;
  Alcotest.(check bool) "control messages were lost" true (sw.C.chan_dropped > 0);
  let r = Option.get (Ledger.find ledger 0) in
  Alcotest.(check bool) "clearing recorded" true (r.Ledger.cleared_at <> None)

let test_ofa_stall_plan () =
  let net = Testbed.scotch_net ~seed:42 ~num_vswitches:4 ~num_backups:2 () in
  let plan = Plan.of_list [ Fault.ofa_stall ~at:4.0 ~duration:2.0 Testbed.edge_dpid ] in
  let ledger = Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start attack;
  Testbed.run_until net ~until:5.0;
  let ofa = Scotch_switch.Switch.ofa net.Testbed.edge in
  Alcotest.(check (float 1e-9)) "agent frozen until the deadline" 6.0
    (Scotch_switch.Ofa.stalled_until ofa);
  Testbed.run_until net ~until:10.0;
  Alcotest.(check bool) "stall passed" true (Scotch_switch.Ofa.stalled_until ofa <= 10.0);
  let r = Option.get (Ledger.find ledger 0) in
  Alcotest.(check bool) "clearing recorded" true (r.Ledger.cleared_at <> None)

let test_channel_drop_deterministic () =
  let dropped seed =
    let net = Testbed.scotch_net ~seed ~num_vswitches:4 ~num_backups:2 () in
    let plan =
      Plan.of_list
        [ Fault.channel_drop ~at:2.0 ~duration:6.0 ~probability:0.3 Testbed.edge_dpid ]
    in
    ignore (Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan);
    let attack = Testbed.attack_source net ~rate:1500.0 () in
    Source.start attack;
    Testbed.run_until net ~until:10.0;
    (Option.get (C.switch net.Testbed.ctrl Testbed.edge_dpid)).C.chan_dropped
  in
  Alcotest.(check int) "same seed, same losses" (dropped 42) (dropped 42);
  Alcotest.(check bool) "losses non-trivial" true (dropped 42 > 0)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let smoke_outcome seed = Resilience.run_outcome ~seed ~scale:0.25 ~kills:2 ~multiplier:5.0 ()

let test_ledger_deterministic () =
  let a = smoke_outcome 42 and b = smoke_outcome 42 in
  Alcotest.(check string) "same seed+plan, identical ledger"
    (Ledger.digest a.Resilience.ledger) (Ledger.digest b.Resilience.ledger);
  Alcotest.(check bool) "identical canonical dumps" true
    (Ledger.canonical a.Resilience.ledger = Ledger.canonical b.Resilience.ledger);
  Alcotest.(check bool) "same success curve" true
    (a.Resilience.success = b.Resilience.success)

let test_resilience_outcome_complete () =
  let o = smoke_outcome 42 in
  let recs = Ledger.records o.Resilience.ledger in
  Alcotest.(check int) "both kills recorded" 2 (List.length recs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "detected" true (r.Ledger.detected_at <> None);
      Alcotest.(check bool) "rebalanced" true (r.Ledger.rebalanced_at <> None);
      Alcotest.(check bool) "recovered" true (r.Ledger.cleared_at <> None);
      Alcotest.(check bool) "a backup took over" true (r.Ledger.backup_promoted <> None))
    recs

(* ------------------------------------------------------------------ *)
(* Injector idempotency: duplicate injection of the same fault on the
   same target must apply the effect once and only undo it when the
   last overlapping copy clears. *)

let test_duplicate_slowdown_idempotent () =
  let net = Testbed.scotch_net ~seed:11 ~num_vswitches:2 () in
  let victim = Testbed.vswitch_dpid 0 in
  let plan =
    Plan.of_list
      [ Fault.ofa_slowdown ~at:1.0 ~duration:2.0 ~factor:4.0 victim; (* clears at 3.0 *)
        Fault.ofa_slowdown ~at:1.5 ~duration:3.0 ~factor:4.0 victim ] (* clears at 4.5 *)
  in
  ignore (Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan);
  let ofa = Scotch_switch.Switch.ofa net.Testbed.vswitches.(0) in
  Testbed.run_until net ~until:3.5;
  Alcotest.(check (float 1e-9)) "first clear leaves the overlapping copy in force" 4.0
    (Scotch_switch.Ofa.slowdown ofa);
  Testbed.run_until net ~until:5.0;
  Alcotest.(check (float 1e-9)) "last clear restores" 1.0 (Scotch_switch.Ofa.slowdown ofa)

let test_duplicate_crash_idempotent () =
  let net = Testbed.scotch_net ~seed:11 ~num_vswitches:4 ~num_backups:2 () in
  let victim = Testbed.vswitch_dpid 0 in
  let plan =
    Plan.of_list
      [ Fault.vswitch_crash ~at:6.0 ~duration:2.0 victim; (* revives at 8.0 *)
        Fault.vswitch_crash ~at:6.5 ~duration:4.0 victim ] (* revives at 10.5 *)
  in
  let ledger =
    Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan
  in
  let dev = net.Testbed.vswitches.(0) in
  Testbed.run_until net ~until:8.5;
  Alcotest.(check bool) "first revive is a no-op while the second copy holds" true
    (Scotch_switch.Switch.is_failed dev);
  Testbed.run_until net ~until:14.0;
  Alcotest.(check bool) "revived when the last copy clears" false
    (Scotch_switch.Switch.is_failed dev);
  let alive = ref false in
  Scotch_core.Overlay.iter_vswitches net.Testbed.overlay (fun v ->
      if Scotch_switch.Switch.dpid v.Scotch_core.Overlay.vsw = victim then
        alive := v.Scotch_core.Overlay.alive);
  Alcotest.(check bool) "overlay sees the victim back" true !alive;
  Alcotest.(check int) "both copies recorded" 2 (Ledger.length ledger);
  let r0 = Option.get (Ledger.find ledger 0) in
  Alcotest.(check bool) "the crash was detected once" true (r0.Ledger.detected_at <> None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scotch_faults"
    [ ( "plan",
        [ Alcotest.test_case "constructor validation" `Quick test_fault_constructors_validate;
          Alcotest.test_case "sorting and ids" `Quick test_plan_sorting_and_ids;
          Alcotest.test_case "merge renumbers" `Quick test_plan_merge_renumbers ] );
      ( "recovery",
        [ Alcotest.test_case "heartbeat detection latency" `Quick test_detection_latency;
          Alcotest.test_case "backup promotion" `Quick test_backup_promotion;
          Alcotest.test_case "select-group rebalance" `Quick test_group_rebalance_after_kill;
          Alcotest.test_case "revived vswitch rejoins as backup" `Quick
            test_recovered_vswitch_rejoins_as_backup;
          Alcotest.test_case "data-breaker revive resyncs verifier" `Quick
            test_revive_resyncs_verifier ] );
      ( "weather",
        [ Alcotest.test_case "channel-drop plan" `Quick test_channel_drop_plan;
          Alcotest.test_case "ofa-stall plan" `Quick test_ofa_stall_plan;
          Alcotest.test_case "channel-drop determinism" `Quick test_channel_drop_deterministic ] );
      ( "idempotency",
        [ Alcotest.test_case "duplicate slowdown" `Quick test_duplicate_slowdown_idempotent;
          Alcotest.test_case "duplicate crash" `Quick test_duplicate_crash_idempotent ] );
      ( "determinism",
        [ Alcotest.test_case "bit-identical ledger" `Quick test_ledger_deterministic;
          Alcotest.test_case "smoke outcome complete" `Quick test_resilience_outcome_complete ] ) ]
