(* Tests for Scotch_verify: each invariant class fires on a forged
   known-bad snapshot with exactly the expected diagnostic, and real
   steady-state topologies lint clean. *)

open Scotch_openflow
open Scotch_switch
open Scotch_packet
module V = Scotch_verify
module D = V.Diagnostic
module S = V.Snapshot

(* ------------------------------------------------------------------ *)
(* Fixture builders: snapshots forged directly, no simulation *)

let rule ?(priority = 10) ~match_ ~instructions () : Flow_table.rule =
  { Flow_table.priority; match_; instructions; idle_timeout = 0.0; hard_timeout = 0.0;
    cookie = Of_types.cookie_none; installed_at = 0.0; last_used = 0.0; packet_count = 0;
    byte_count = 0 }

let port ?tunnel ?(link_up = Some true) ~endpoint port_id : S.port =
  { S.port_id; tunnel; link_up; endpoint }

let node ?(failed = false) ?(num_tables = 2) ?(rules = []) ?(groups = []) ?(ports = []) dpid :
    S.node =
  { S.dpid; failed; num_tables;
    tables = List.map (fun (table_id, rules) -> (table_id, Classifier.of_list rules)) rules;
    groups; ports }

let snap ?(hosts = []) ?(managed = []) ?(vswitch_dpids = []) ?overlay ?intents nodes : S.t =
  { S.now = 0.0; nodes; hosts; managed; vswitch_dpids; overlay; intents }

let host ~ip ~dpid ~port : S.host =
  { S.host_ip = ip; attach_dpid = dpid; attach_port = port }

let ip_a = 0x0A000001 (* 10.0.0.1 *)
let ip_b = 0x0A000002 (* 10.0.0.2 *)

let exact_match ~src ~dst =
  Of_match.wildcard
  |> Of_match.with_ip_src (Ipv4_addr.of_int src)
  |> Of_match.with_ip_dst (Ipv4_addr.of_int dst)
  |> Of_match.with_ip_proto 6 |> Of_match.with_l4_src 1000 |> Of_match.with_l4_dst 80

let output p = Of_action.output (Of_types.Port_no.Physical p)

let check_one ~inv ~sev s =
  match V.check s with
  | [ d ] ->
    Alcotest.(check string) "invariant" (D.invariant_name inv) (D.invariant_name d.D.invariant);
    Alcotest.(check bool) "severity" (sev = D.Error) (D.is_error d);
    d
  | ds ->
    Alcotest.failf "expected exactly one diagnostic, got %d:@.%s" (List.length ds)
      (String.concat "\n" (List.map D.to_string ds))

(* ------------------------------------------------------------------ *)
(* Invariant 1: forwarding loop between two switches *)

let loop_snapshot () =
  (* sw1 port 2 <-> sw2 port 1 and sw2 port 2 <-> sw1 port 3: the same
     exact rule on both switches bounces the flow forever *)
  let r ~out = rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output out) () in
  snap
    ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1 ]
    [ node 1
        ~rules:[ (0, [ r ~out:2 ]) ]
        ~ports:
          [ port 1 ~endpoint:(S.To_host 1);
            port 2 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 1 });
            port 3 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 2 }) ];
      node 2
        ~rules:[ (0, [ r ~out:2 ]) ]
        ~ports:
          [ port 1 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 2 });
            port 2 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 3 }) ] ]

let test_loop () =
  let d = check_one ~inv:D.Loop ~sev:D.Error (loop_snapshot ()) in
  Alcotest.(check bool) "has a walk witness" true (d.D.witness <> None)

let test_loop_broken_is_clean () =
  (* same wiring, but sw2 delivers to a host instead of bouncing back *)
  let s = loop_snapshot () in
  let fix (n : S.node) =
    if n.S.dpid <> 2 then n
    else
      { n with
        S.ports =
          [ port 1 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 2 });
            port 2 ~endpoint:(S.To_host 2) ] }
  in
  Alcotest.(check int) "clean" 0 (List.length (V.check { s with S.nodes = List.map fix s.S.nodes }))

(* ------------------------------------------------------------------ *)
(* Invariant 2: blackholes *)

let test_blackhole_disconnected_port () =
  let s =
    snap
      [ node 1
          ~rules:
            [ (0, [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output 9) () ]) ]
          ~ports:[ port 9 ~link_up:None ~endpoint:S.Disconnected ] ]
  in
  ignore (check_one ~inv:D.Blackhole ~sev:D.Error s)

let test_blackhole_empty_instructions () =
  let s =
    snap
      [ node 1 ~rules:[ (0, [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:[] () ]) ] ]
  in
  ignore (check_one ~inv:D.Blackhole ~sev:D.Error s)

let test_blackhole_goto_empty_table () =
  let s =
    snap
      [ node 1
          ~rules:
            [ (0,
               [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b)
                   ~instructions:[ Of_action.Goto_table 1 ] () ]) ] ]
  in
  ignore (check_one ~inv:D.Blackhole ~sev:D.Error s)

(* ------------------------------------------------------------------ *)
(* Invariant 3: shadowed rules *)

let test_shadowed_rule () =
  let hi =
    rule ~priority:20
      ~match_:(Of_match.with_ip_proto 6 Of_match.wildcard)
      ~instructions:(output 1) ()
  in
  let lo = rule ~priority:5 ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output 1) () in
  let s = snap [ node 1 ~rules:[ (0, [ hi; lo ]) ] ~ports:[ port 1 ~endpoint:(S.To_host 1) ] ] in
  let d = check_one ~inv:D.Shadow ~sev:D.Warning s in
  Alcotest.(check bool) "names the shadowed rule" true (d.D.rule <> None)

let test_no_shadow_when_disjoint () =
  (* same shape, but the high-priority rule pins a different protocol:
     no cover, no warning *)
  let hi =
    rule ~priority:20
      ~match_:(Of_match.with_ip_proto 17 Of_match.wildcard)
      ~instructions:(output 1) ()
  in
  let lo = rule ~priority:5 ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output 1) () in
  let s = snap [ node 1 ~rules:[ (0, [ hi; lo ]) ] ~ports:[ port 1 ~endpoint:(S.To_host 1) ] ] in
  Alcotest.(check int) "clean" 0 (List.length (V.check s))

(* ------------------------------------------------------------------ *)
(* Invariant 4: group sanity *)

let group ~buckets group_id : Group_table.group = { Group_table.group_id; buckets }

let bucket = Of_msg.Group_mod.bucket

let test_group_bucket_to_crashed_vswitch () =
  (* the select group's bucket outputs on a tunnel whose far end is a
     crashed vswitch: an Error, because groups never idle out (S5.6) *)
  let s =
    snap
      [ node 1
          ~groups:[ group 1 ~buckets:[ bucket [ Of_action.Output (Of_types.Port_no.Physical 10007) ] ] ]
          ~ports:
            [ port 10007 ~tunnel:7 ~endpoint:(S.To_switch { peer = 100; peer_in_port = 10007 }) ];
        node 100 ~failed:true ]
  in
  let d = check_one ~inv:D.Group_sanity ~sev:D.Error s in
  Alcotest.(check bool) "blames the tunnel" true
    (match d.D.message with m -> String.length m > 0 && d.D.dpid = Some 1)

let test_group_empty_buckets () =
  let s = snap [ node 1 ~groups:[ group 1 ~buckets:[] ] ] in
  ignore (check_one ~inv:D.Group_sanity ~sev:D.Error s)

(* A forged empty group that a rule points at: group sanity reports it,
   and the loop walk, which runs the datapath's bucket selection,
   executes nothing there instead of failing. *)
let test_group_empty_hit_by_walk () =
  let s =
    snap
      ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1; host ~ip:ip_b ~dpid:1 ~port:2 ]
      [ node 1
          ~rules:
            [ (0,
               [ rule ~match_:Of_match.wildcard
                   ~instructions:[ Of_action.Apply_actions [ Of_action.Group 1 ] ] () ]) ]
          ~groups:[ group 1 ~buckets:[] ]
          ~ports:[ port 1 ~endpoint:(S.To_host 1); port 2 ~endpoint:(S.To_host 2) ] ]
  in
  ignore (check_one ~inv:D.Group_sanity ~sev:D.Error s)

(* The walk's action semantics, pinned on three forged snapshots of one
   wiring: sw1 port 1 holds host a, sw1 port 10007 is tunnel 7 to sw2,
   sw2 port 2 comes back into sw1 port 3 and sw2 port 3 holds host b. *)
let tunnel_wiring ~sw1 ~sw2 =
  snap
    ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1 ]
    [ node 1 ~rules:sw1
        ~groups:
          [ group 1
              ~buckets:[ bucket [ Of_action.Output (Of_types.Port_no.Physical 10007) ] ] ]
        ~ports:
          [ port 1 ~endpoint:(S.To_host 1);
            port 3 ~link_up:None ~endpoint:S.Disconnected;
            port 10007 ~tunnel:7 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 10007 }) ];
      node 2 ~rules:sw2
        ~ports:
          [ port 2 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 3 });
            port 3 ~endpoint:(S.To_host 2);
            port 10007 ~tunnel:7 ~link_up:None ~endpoint:S.Disconnected ] ]

let test_loop_action_semantics () =
  let loops s =
    List.filter_map
      (fun (d : D.t) -> if d.D.invariant = D.Loop then Some (D.to_string d) else None)
      (V.check s)
  in
  let exact instructions = rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions () in
  let apply actions = [ Of_action.Apply_actions actions ] in
  let label5 = Of_match.with_mpls_label 5 Of_match.wildcard in
  let out p = Of_action.Output (Of_types.Port_no.Physical p) in
  (* push 5, out the tunnel (which pushes 7); sw2 strips 7 on arrival,
     pops 5 and sends the bare packet back: sw2 sees [mpls 5] twice *)
  let mpls_loop =
    tunnel_wiring
      ~sw1:[ (0, [ exact (apply [ Of_action.Push_mpls 5; out 10007 ]) ]) ]
      ~sw2:[ (0, [ rule ~match_:label5 ~instructions:(apply [ Of_action.Pop_mpls; out 2 ]) () ]) ]
  in
  (* the same loop, with sw1 reaching the tunnel only through group 1 *)
  let group_loop =
    tunnel_wiring
      ~sw1:[ (0, [ exact (apply [ Of_action.Push_mpls 5; Of_action.Group 1 ]) ]) ]
      ~sw2:[ (0, [ rule ~match_:label5 ~instructions:(apply [ Of_action.Pop_mpls; out 2 ]) () ]) ]
  in
  (* sw2 sends the labelled packet back; sw1 pops it before table 1,
     where only a label-5 packet would re-enter the tunnel: it ends at
     host a instead *)
  let popped =
    tunnel_wiring
      ~sw1:
        [ ( 0,
            [ rule ~priority:20 ~match_:(Of_match.with_in_port 3 Of_match.wildcard)
                ~instructions:
                  [ Of_action.Apply_actions [ Of_action.Pop_mpls ]; Of_action.Goto_table 1 ]
                ();
              exact (apply [ Of_action.Push_mpls 5; out 10007 ]) ] );
          ( 1,
            [ rule ~priority:20 ~match_:label5 ~instructions:(apply [ out 10007 ]) ();
              rule ~match_:Of_match.wildcard ~instructions:(apply [ out 1 ]) () ] ) ]
      ~sw2:[ (0, [ rule ~match_:label5 ~instructions:(apply [ out 2 ]) () ]) ]
  in
  let found =
    "[error] loop at dpid 2: forwarding loop: (dpid 2, in-port 10007) revisited [witness: \
     10.0.0.1:1000->10.0.0.2:80/6 via 1:1 -> 2:10007 -> 1:3]"
  in
  Alcotest.(check (list string)) "push, tunnel, pop" [ found ] (loops mpls_loop);
  Alcotest.(check (list string)) "select-group bucket" [ found ] (loops group_loop);
  Alcotest.(check (list string)) "pop ends at a host" [] (loops popped)

(* Two rules of one priority that both match the a->b flow: the
   datapath picks the first in [live_rules] order, and the walk must
   follow that rule.  The winner sends the flow into the sw1 <-> sw2
   bounce, the loser delivers it to host b, so a Loop finding means
   the walk followed the winner; with the outputs swapped it must be
   clean.  Each case's rules go in with the later one in [live_rules]
   order inserted last; the incremental verifier, whose tables keep
   their own order within a priority, must agree at every step. *)
let test_loop_follows_tie_break () =
  let eth_ipv4 m = Of_match.with_eth_type Headers.Ethernet.ethertype_ipv4 m in
  let dst_b = Of_match.with_ip_dst (Ipv4_addr.of_int ip_b) Of_match.wildcard in
  let cases =
    (* (name, earlier, later): [earlier] comes first in [live_rules] *)
    [ ("two one-field rules", dst_b, Of_match.with_ip_src (Ipv4_addr.of_int ip_a) Of_match.wildcard);
      ("wider-pinned rule and exact", eth_ipv4 (exact_match ~src:ip_a ~dst:ip_b),
       exact_match ~src:ip_a ~dst:ip_b);
      ("two- and one-field rules", eth_ipv4 dst_b, dst_b) ]
  in
  let base sw1 =
    snap
      ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1; host ~ip:ip_b ~dpid:1 ~port:4 ]
      [ node 1 ~rules:[ (0, sw1) ]
          ~ports:
            [ port 1 ~endpoint:(S.To_host 1);
              port 2 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 1 });
              port 3 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 2 });
              port 4 ~endpoint:(S.To_host 2) ];
        node 2
          ~rules:[ (0, [ rule ~match_:Of_match.wildcard ~instructions:(output 2) () ]) ]
          ~ports:
            [ port 1 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 2 });
              port 2 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 3 }) ] ]
  in
  let loops ds = List.exists (fun (d : D.t) -> d.D.invariant = D.Loop) ds in
  let packet =
    Packet.tcp_syn ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~ip_src:(Ipv4_addr.of_int ip_a) ~ip_dst:(Ipv4_addr.of_int ip_b) ~src_port:1000 ~dst_port:80 ()
  in
  let ctx = Of_match.context ~in_port:1 packet in
  List.iter
    (fun (name, earlier, later) ->
      let table = Flow_table.create ~table_id:0 () in
      let insert m ~out =
        ignore
          (Flow_table.insert table ~now:0.0 ~priority:10 ~match_:m ~instructions:(output out)
             ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:Of_types.cookie_none)
      in
      insert earlier ~out:2;
      insert later ~out:4;
      let live = Flow_table.live_rules table ~now:0.0 in
      let winner = List.find (fun r -> Of_match.matches r.Flow_table.match_ ctx) live in
      (match Flow_table.peek table ~now:0.0 ctx with
      | Some r ->
        Alcotest.(check bool) (name ^ ": peek is live_rules' first match") true (r == winner);
        Alcotest.(check bool) (name ^ ": the structural tie-break") true
          (r.Flow_table.match_ = earlier)
      | None -> Alcotest.fail (name ^ ": peek missed"));
      Alcotest.(check bool) (name ^ ": walk follows the winner") true (loops (V.check (base live)));
      let swapped =
        List.map
          (fun (r : Flow_table.rule) ->
            { r with Flow_table.instructions = output (if r == winner then 4 else 2) })
          live
      in
      Alcotest.(check bool) (name ^ ": swapped outputs are clean") false
        (loops (V.check (base swapped)));
      let incr = V.Incremental.create ~now:0.0 (base []) in
      List.iteri
        (fun i (r : Flow_table.rule) ->
          let got =
            V.Incremental.apply incr ~now:(0.01 *. float_of_int (i + 1))
              (V.Incremental.Table_delta { dpid = 1; table_id = 0; added = [ r ]; removed = [] })
          in
          let want = V.check (V.Incremental.model incr) in
          Alcotest.(check bool) (name ^ ": incremental agrees") true
            (List.compare_lengths want got = 0
            && List.for_all2 (fun a b -> D.compare a b = 0) want got);
          Alcotest.(check bool) (name ^ ": audit agrees") true (V.Incremental.check_equivalence incr))
        (List.rev live);
      Alcotest.(check bool) (name ^ ": incremental loop") true (loops (V.Incremental.diagnostics incr)))
    cases

(* ------------------------------------------------------------------ *)
(* Invariant 5: table-miss coverage and overlay symmetry *)

let miss_rule () =
  rule ~priority:0 ~match_:Of_match.wildcard ~instructions:Of_action.to_controller ()

let test_missing_table_miss () =
  let s = snap ~managed:[ 1 ] [ node 1 ~rules:[ (0, []) ] ] in
  let d = check_one ~inv:D.Coverage ~sev:D.Error s in
  Alcotest.(check (option int)) "at table 0" (Some 0) d.D.table_id

let test_table_miss_present_is_clean () =
  let s = snap ~managed:[ 1 ] [ node 1 ~rules:[ (0, [ miss_rule () ]) ] ] in
  Alcotest.(check int) "clean" 0 (List.length (V.check s))

let test_cover_without_alive_vswitch () =
  let overlay =
    { S.vswitches = [ (100, false, false) ];
      uplinks = []; tunnel_origins = []; covers = [ (ip_a, 100) ]; mesh = []; deliveries = [] }
  in
  let s = snap ~overlay [ node 100 ~failed:true ] in
  ignore (check_one ~inv:D.Coverage ~sev:D.Error s)

let test_uplink_missing_origin () =
  (* an uplink tunnel the origin map does not know: redirected
     Packet-Ins from it could never be attributed (S5.2) *)
  let overlay =
    { S.vswitches = [ (100, true, false) ];
      uplinks = [ (1, [ (100, 7) ]) ];
      tunnel_origins = []; covers = []; mesh = []; deliveries = [] }
  in
  let tport = Scotch_topo.Topology.tunnel_port_of_id 7 in
  let s =
    snap ~overlay
      [ node 1 ~ports:[ port tport ~tunnel:7 ~endpoint:(S.To_switch { peer = 100; peer_in_port = tport }) ];
        node 100 ]
  in
  ignore (check_one ~inv:D.Coverage ~sev:D.Error s)

(* ------------------------------------------------------------------ *)
(* Rendering: the exact text of every finding that names a rule or a
   group, and the ordering of a mixed report.  The rule subject must
   render to distinct text for distinct (priority, match) pairs, since
   de-duplication and report counts rest on that. *)

let render_one s =
  match V.check s with
  | [ d ] -> D.to_string d
  | ds ->
    Alcotest.failf "expected exactly one diagnostic, got %d:@.%s" (List.length ds)
      (String.concat "\n" (List.map D.to_string ds))

let exact_rule ?priority instructions =
  rule ?priority ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions ()

let exact_text = "match{ip_src=10.0.0.1,ip_dst=10.0.0.2,ip_proto=6,l4_src=1000,l4_dst=80}"

let test_render_blackhole () =
  let one rules ?(ports = []) ?(extra = []) () =
    render_one (snap (node 1 ~rules:[ (0, rules) ] ~ports :: extra))
  in
  Alcotest.(check string) "empty rule"
    ("[error] blackhole at dpid 1 table 0: rule has no actions and no goto: every hit is \
      silently dropped (rule prio 10 " ^ exact_text ^ ")")
    (one [ exact_rule [] ] ());
  Alcotest.(check string) "dead port"
    ("[warning] blackhole at dpid 1 table 0: port 5 leads to dead switch 2 (rule prio 10 "
    ^ exact_text ^ ")")
    (one [ exact_rule (output 5) ]
       ~ports:[ port 5 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 1 }) ]
       ~extra:[ node 2 ~failed:true ] ());
  Alcotest.(check string) "unknown group"
    ("[error] blackhole at dpid 1 table 0: rule points at unknown group 7 (rule prio 10 "
    ^ exact_text ^ ")")
    (one [ exact_rule [ Of_action.Apply_actions [ Of_action.Group 7 ] ] ] ());
  Alcotest.(check string) "goto"
    ("[error] blackhole at dpid 1 table 0: goto table 5 is outside the pipeline (tables \
      1..1) (rule prio 10 " ^ exact_text ^ ")")
    (one [ exact_rule [ Of_action.Goto_table 5 ] ] ())

let test_render_shadow () =
  let hi =
    rule ~priority:20 ~match_:(Of_match.with_ip_proto 6 Of_match.wildcard)
      ~instructions:(output 1) ()
  in
  let s =
    snap
      [ node 1
          ~rules:[ (0, [ hi; exact_rule ~priority:5 (output 1) ]) ]
          ~ports:[ port 1 ~endpoint:(S.To_host 1) ] ]
  in
  Alcotest.(check string) "shadow"
    ("[warning] shadow at dpid 1 table 0: rule is unreachable: fully covered by \
      higher-priority rule prio 20 match{ip_proto=6} (rule prio 5 " ^ exact_text ^ ")")
    (render_one s)

(* An intent state for dpid 1 whose store holds [flow_mods], recorded
   at -5 s. *)
let intents ?(flow_mods = []) () : S.intent_state =
  let store = Scotch_reliable.Intent.create () in
  List.iter (Scotch_reliable.Intent.record_flow_mod store ~now:(-5.0)) flow_mods;
  { S.grace = 1.0; owned = [ 7L ];
    per_switch = [ { S.int_dpid = 1; int_store = store } ] }

let test_render_divergence () =
  let missing =
    Of_msg.Flow_mod.add ~priority:30 ~cookie:7L
      ~match_:(Of_match.with_tunnel_id 4 (Of_match.with_in_port 2 Of_match.wildcard))
      ~instructions:[] ()
  in
  Alcotest.(check string) "missing intent"
    "[error] divergence at dpid 1 table 0: durable intent rule is missing from the device \
     (rule prio 30 match{in_port=2,tunnel=4})"
    (render_one { (snap [ node 1 ]) with S.intents = Some (intents ~flow_mods:[ missing ] ()) });
  let orphan = { (exact_rule (output 1)) with Flow_table.cookie = 7L; installed_at = -5.0 } in
  Alcotest.(check string) "orphan"
    ("[error] divergence at dpid 1 table 0: device rule with a reconciler-owned cookie has \
      no intent (orphan) (rule prio 10 " ^ exact_text ^ ")")
    (render_one
       { (snap [ node 1 ~rules:[ (0, [ orphan ]) ] ~ports:[ port 1 ~endpoint:(S.To_host 1) ] ])
         with S.intents = Some (intents ()) })

let test_render_group () =
  let s =
    snap
      [ node 1
          ~groups:
            [ group 3 ~buckets:[ bucket [ Of_action.Output (Of_types.Port_no.Physical 9) ] ] ] ]
  in
  Alcotest.(check string) "group sanity"
    "[error] group-sanity at dpid 1: output to unknown port 9 (rule group 3)" (render_one s)

let test_render_order () =
  (* findings that differ before the rule subject: severity, invariant,
     dpid, table, message *)
  let s =
    snap
      [ node 1
          ~rules:
            [ (0, [ exact_rule (output 5) ]);
              (1, [ exact_rule ~priority:3 [] ]) ]
          ~groups:[ group 3 ~buckets:[] ]
          ~ports:[ port 5 ~link_up:(Some false) ~endpoint:(S.To_host 1) ];
        node 2 ~rules:[ (0, [ exact_rule [ Of_action.Goto_table 1 ] ]) ] ]
  in
  Alcotest.(check (list string)) "order"
    [ "[error] blackhole at dpid 1 table 1: rule has no actions and no goto: every hit is \
       silently dropped (rule prio 3 " ^ exact_text ^ ")";
      "[error] blackhole at dpid 2 table 0: goto into empty table 1: every hit misses and is \
       dropped (rule prio 10 " ^ exact_text ^ ")";
      "[error] group-sanity at dpid 1: group 3 has an empty bucket list";
      "[warning] blackhole at dpid 1 table 0: output to port 5, whose link is \
       administratively down (rule prio 10 " ^ exact_text ^ ")" ]
    (List.map D.to_string (V.check s))

let subject_gen =
  let open QCheck2.Gen in
  let small l = opt (oneofl l) in
  let masked =
    opt
      (let* v = oneofl [ ip_a; ip_b; 0x0A000000 ]
       and* m = oneofl [ 0xFFFFFFFF; 0xFFFFFF00; 0 ] in
       return { Of_match.value = v; mask = m })
  in
  let* priority = int_range 0 3 and* in_port = small [ 1; 2 ]
  and* eth_type = small [ 0x0800; 0x8847 ] and* ip_src = masked and* ip_dst = masked
  and* ip_proto = small [ 6; 17 ] and* l4_src = small [ 0; 80 ] and* l4_dst = small [ 0; 80 ]
  and* mpls_label = small [ 0; 16 ] and* tunnel_id = small [ 0; 4 ] in
  return
    ( priority,
      { Of_match.in_port; eth_type; ip_src; ip_dst; ip_proto; l4_src; l4_dst; mpls_label;
        tunnel_id } )

(* One rule with no instructions: its only finding names it. *)
let render_subject (priority, match_) =
  render_one (snap [ node 1 ~rules:[ (0, [ rule ~priority ~match_ ~instructions:[] () ]) ] ])

let test_render_injective =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"distinct rule subjects render distinctly"
       QCheck2.Gen.(pair subject_gen subject_gen)
       (fun (a, b) -> (a = b) = (render_subject a = render_subject b)))

(* ------------------------------------------------------------------ *)
(* Differential property: after any churn sequence, the incremental
   verifier's violation set equals a fresh whole-snapshot Checker run
   on the same model (same diagnostics modulo ordering/first_at). *)

module Incr = V.Incremental

(* Small random topologies: [n] switches in a ring of data links plus a
   host per switch; churn mutates rules, groups, ports and liveness. *)

let gen_ip i = 0x0A000000 lor (i + 1)

let gen_base_snap ~switches =
  let hosts =
    List.init switches (fun i -> host ~ip:(gen_ip i) ~dpid:(i + 1) ~port:1)
  in
  let nodes =
    List.init switches (fun i ->
        let dpid = i + 1 in
        let next = (dpid mod switches) + 1 and prev = ((dpid + switches - 2) mod switches) + 1 in
        node dpid
          ~rules:[ (0, [ miss_rule () ]); (1, []) ]
          ~ports:
            [ port 1 ~endpoint:(S.To_host dpid);
              port 2 ~endpoint:(S.To_switch { peer = next; peer_in_port = 3 });
              port 3 ~endpoint:(S.To_switch { peer = prev; peer_in_port = 2 }) ])
  in
  snap ~hosts ~managed:(List.init switches (fun i -> i + 1)) nodes

(* A churn step, encoded as data so qcheck can shrink sequences.  Rule
   steps become [Incr.Table_delta], the switch tap's shape; an add over
   a live (priority, match) slot is a replace, as in {!Flow_table}.
   Besides exact and protocol-wildcard rules, the rule shapes include an
   [ip_dst] prefix, an [ip_src] prefix, L4 ports alone, an exact rule
   pinned to an in-port, and a same-priority tie between an exact rule
   and a broader [ip_dst] rule added in one delta.  The prefix and port
   shapes select classes by a masked or partial key. *)
type churn =
  | Add_rule of { dpid : int; table : int; prio : int; src : int; dst : int; out : int }
  | Add_wild of { dpid : int; prio : int; proto : int; out : int }
  | Add_prefix of { dpid : int; table : int; prio : int; dst : int; bits : int; out : int }
  | Add_src_prefix of { dpid : int; table : int; prio : int; src : int; bits : int; out : int }
  | Add_ports of {
      dpid : int; table : int; prio : int; l4_src : int option; l4_dst : int option; out : int }
  | Add_in_port of {
      dpid : int; table : int; prio : int; in_port : int; src : int; dst : int; out : int }
  | Add_tie of {
      dpid : int; table : int; prio : int; src : int; dst : int; out : int; broad_out : int }
  | Del_rule of { dpid : int; table : int; idx : int }
  | Set_group of { dpid : int; gid : int; out : int }
  | Drop_groups of { dpid : int }
  | Flip_failed of { dpid : int }
  | Drop_port of { dpid : int; idx : int }

let churn_gen ~switches =
  let open QCheck2.Gen in
  let dpid = int_range 1 switches in
  oneof
    [ (let* d = dpid and* tbl = int_range 0 1 and* p = int_range 1 30
       and* s = int_range 0 (switches - 1) and* dst = int_range 0 (switches - 1)
       and* out = int_range 1 4 in
       return (Add_rule { dpid = d; table = tbl; prio = p; src = s; dst; out }));
      (let* d = dpid and* p = int_range 1 30 and* proto = oneofl [ 6; 17 ]
       and* out = int_range 1 4 in
       return (Add_wild { dpid = d; prio = p; proto; out }));
      (let* d = dpid and* tbl = int_range 0 1 and* p = int_range 1 30
       and* dst = int_range 0 (switches - 1) and* bits = oneofl [ 24; 30; 31 ]
       and* out = int_range 1 4 in
       return (Add_prefix { dpid = d; table = tbl; prio = p; dst; bits; out }));
      (let* d = dpid and* tbl = int_range 0 1 and* p = int_range 1 30
       and* s = int_range 0 (switches - 1) and* bits = oneofl [ 24; 30; 31 ]
       and* out = int_range 1 4 in
       return (Add_src_prefix { dpid = d; table = tbl; prio = p; src = s; bits; out }));
      (let* d = dpid and* tbl = int_range 0 1 and* p = int_range 1 30
       and* l4_src, l4_dst =
         oneofl
           [ (Some 1000, None); (None, Some 80); (Some 53123, Some 80); (Some 1000, Some 81) ]
       and* out = int_range 1 4 in
       return (Add_ports { dpid = d; table = tbl; prio = p; l4_src; l4_dst; out }));
      (let* d = dpid and* tbl = int_range 0 1 and* p = int_range 1 30 and* in_port = int_range 1 3
       and* s = int_range 0 (switches - 1) and* dst = int_range 0 (switches - 1)
       and* out = int_range 1 4 in
       return (Add_in_port { dpid = d; table = tbl; prio = p; in_port; src = s; dst; out }));
      (let* d = dpid and* tbl = int_range 0 1 and* p = int_range 1 30
       and* s = int_range 0 (switches - 1) and* dst = int_range 0 (switches - 1)
       and* out = int_range 1 4 and* broad_out = int_range 1 4 in
       return (Add_tie { dpid = d; table = tbl; prio = p; src = s; dst; out; broad_out }));
      (let* d = dpid and* tbl = int_range 0 1 and* idx = int_range 0 5 in
       return (Del_rule { dpid = d; table = tbl; idx }));
      (let* d = dpid and* gid = int_range 1 3 and* out = int_range 1 4 in
       return (Set_group { dpid = d; gid; out }));
      (let* d = dpid in
       return (Drop_groups { dpid = d }));
      (let* d = dpid in
       return (Flip_failed { dpid = d }));
      (let* d = dpid and* idx = int_range 0 3 in
       return (Drop_port { dpid = d; idx })) ]

(* Apply one churn step to the pure model, returning the matching
   incremental update. *)
let step_of_churn model =
  let add dpid table rules =
    Option.map
      (fun (_ : S.node) ->
        let added =
          List.map
            (fun (prio, match_, out) -> rule ~priority:prio ~match_ ~instructions:(output out) ())
            rules
        in
        Incr.Table_delta { dpid; table_id = table; added; removed = [] })
      (S.node model dpid)
  in
  let dst_only ?mask dst =
    Of_match.with_ip_dst ?mask (Ipv4_addr.of_int (gen_ip dst)) Of_match.wildcard
  in
  let exact src dst = exact_match ~src:(gen_ip src) ~dst:(gen_ip dst) in
  function
  | Add_rule { dpid; table; prio; src; dst; out } ->
    add dpid table [ (prio, exact src dst, out) ]
  | Add_prefix { dpid; table; prio; dst; bits; out } ->
    add dpid table [ (prio, dst_only ~mask:(Ipv4_addr.prefix_mask bits) dst, out) ]
  | Add_src_prefix { dpid; table; prio; src; bits; out } ->
    let m =
      Of_match.with_ip_src ~mask:(Ipv4_addr.prefix_mask bits) (Ipv4_addr.of_int (gen_ip src))
        Of_match.wildcard
    in
    add dpid table [ (prio, m, out) ]
  | Add_ports { dpid; table; prio; l4_src; l4_dst; out } ->
    let pin f v m = Option.fold ~none:m ~some:(fun p -> f p m) v in
    let m = pin Of_match.with_l4_src l4_src (pin Of_match.with_l4_dst l4_dst Of_match.wildcard) in
    add dpid table [ (prio, m, out) ]
  | Add_in_port { dpid; table; prio; in_port; src; dst; out } ->
    add dpid table [ (prio, Of_match.with_in_port in_port (exact src dst), out) ]
  | Add_tie { dpid; table; prio; src; dst; out; broad_out } ->
    add dpid table [ (prio, exact src dst, out); (prio, dst_only dst, broad_out) ]
  | Add_wild { dpid; prio; proto; out } ->
    add dpid 0 [ (prio, Of_match.with_ip_proto proto Of_match.wildcard, out) ]
  | Del_rule { dpid; table; idx } ->
    Option.map
      (fun (n : S.node) ->
        let old = Option.fold ~none:[] ~some:Classifier.to_list (S.table n table) in
        let removed = if old = [] then [] else [ List.nth old (idx mod List.length old) ] in
        Incr.Table_delta { dpid; table_id = table; added = []; removed })
      (S.node model dpid)
  | Set_group { dpid; gid; out } ->
    Option.map
      (fun (n : S.node) ->
        let g = group gid ~buckets:[ bucket [ Of_action.Output (Of_types.Port_no.Physical out) ] ] in
        let groups =
          g :: List.filter (fun (o : Group_table.group) -> o.group_id <> gid) n.S.groups
          |> List.sort (fun (a : Group_table.group) b -> compare a.group_id b.group_id)
        in
        Incr.Groups { dpid; groups })
      (S.node model dpid)
  | Drop_groups { dpid } ->
    Option.map (fun (_ : S.node) -> Incr.Groups { dpid; groups = [] }) (S.node model dpid)
  | Flip_failed { dpid } ->
    Option.map
      (fun (n : S.node) -> Incr.Ports { dpid; ports = n.S.ports; failed = not n.S.failed })
      (S.node model dpid)
  | Drop_port { dpid; idx } ->
    Option.map
      (fun (n : S.node) ->
        let ports =
          if n.S.ports = [] then []
          else List.filteri (fun i _ -> i <> idx mod List.length n.S.ports) n.S.ports
        in
        Incr.Ports { dpid; ports; failed = n.S.failed })
      (S.node model dpid)

let pp_diag_set ds = String.concat "\n" (List.map D.to_string ds)

let differential_prop (switches, steps) =
  let base = gen_base_snap ~switches in
  let incr = Incr.create ~now:0.0 base in
  let ok0 =
    let full = V.check (Incr.model incr) in
    List.length full = List.length (Incr.diagnostics incr)
    && List.for_all2 (fun a b -> D.compare a b = 0) full (Incr.diagnostics incr)
  in
  if not ok0 then
    QCheck2.Test.fail_reportf "initial state diverges:@.full:@.%s@.incr:@.%s"
      (pp_diag_set (V.check (Incr.model incr)))
      (pp_diag_set (Incr.diagnostics incr));
  List.iteri
    (fun i step ->
      match step_of_churn (Incr.model incr) step with
      | None -> ()
      | Some u ->
        let now = 0.1 *. float_of_int (i + 1) in
        let got = Incr.apply incr ~now u in
        let want = V.check (Incr.model incr) in
        let same =
          List.length want = List.length got
          && List.for_all2 (fun a b -> D.compare a b = 0) want got
        in
        if not same then
          QCheck2.Test.fail_reportf
            "after churn step %d the sets diverge:@.full rescan:@.%s@.incremental:@.%s" i
            (pp_diag_set want) (pp_diag_set got))
    steps;
  (* the audit the bench/CI gate counts must agree too *)
  Incr.check_equivalence incr

let test_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"incremental == snapshot after every delta"
       QCheck2.Gen.(
         let* switches = int_range 2 4 in
         let* steps = list_size (int_range 1 25) (churn_gen ~switches) in
         return (switches, steps))
       differential_prop)

(* A classifier's layout (subtable creation order, install order)
   depends only on the order its rules went in, and the rescan must not
   depend even on that: rebuilding
   every table of a churned snapshot from its rules shuffled within
   each priority must leave [Checker.check] unchanged.  Every switch
   first gets a priority-1 TCP rule forwarding around the ring, so
   which of two tied rules a walk follows often decides whether it
   loops. *)
let rescan_order_prop (switches, steps, seed) =
  let incr = Incr.create ~now:0.0 (gen_base_snap ~switches) in
  let ring =
    List.init switches (fun i -> Add_wild { dpid = i + 1; prio = 1; proto = 6; out = 2 })
  in
  List.iteri
    (fun i step ->
      Option.iter
        (fun u -> ignore (Incr.apply incr ~now:(0.1 *. float_of_int (i + 1)) u))
        (step_of_churn (Incr.model incr) step))
    (ring @ steps);
  let snap = Incr.model incr in
  let rng = Random.State.make [| seed |] in
  let shuffle rules =
    List.map (fun r -> (Random.State.bits rng, r)) rules
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
    |> List.stable_sort (fun (a : Flow_table.rule) b ->
           compare b.Flow_table.priority a.Flow_table.priority)
  in
  let shuffled =
    { snap with
      S.nodes =
        List.map
          (fun (n : S.node) ->
            { n with
              S.tables =
                List.map
                  (fun (table_id, c) ->
                    (table_id, Classifier.of_list (shuffle (Classifier.to_list c))))
                  n.S.tables })
          snap.S.nodes }
  in
  let want = V.Checker.check snap and got = V.Checker.check shuffled in
  List.compare_lengths want got = 0 && List.for_all2 (fun a b -> D.compare a b = 0) want got
  || QCheck2.Test.fail_reportf "shuffled within priorities:@.%s@.in classifier order:@.%s"
       (pp_diag_set got) (pp_diag_set want)

let test_rescan_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"rescan ignores rule order within a priority"
       QCheck2.Gen.(
         let* switches = int_range 2 4 in
         let* steps = list_size (int_range 1 25) (churn_gen ~switches) in
         let* seed = int in
         return (switches, steps, seed))
       rescan_order_prop)

(* ------------------------------------------------------------------ *)
(* The class-universe cap: spoofed-source (orphan) keys beyond the cap
   wait in overflow, and a withdrawal promotes the smallest of them *)

let orphan_cap = 128 (* the loop invariant's max_orphan_keys *)

let test_orphan_cap_promotion () =
  (* sw1 holds two hosts; sw1 port 2 -> sw2 port 1, sw2 port 2 -> sw1 port 3 *)
  let base =
    snap ~managed:[ 1 ]
      ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1; host ~ip:ip_b ~dpid:1 ~port:4 ]
      [ node 1
          ~rules:[ (0, [ miss_rule () ]) ]
          ~ports:
            [ port 1 ~endpoint:(S.To_host 1);
              port 2 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 1 });
              port 3 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 2 });
              port 4 ~endpoint:(S.To_host 2) ];
        node 2
          ~ports:
            [ port 1 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 2 });
              port 2 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 3 }) ] ]
  in
  let incr = Incr.create ~now:0.0 base in
  let key_of src =
    Flow_key.make ~ip_src:(Ipv4_addr.of_int src) ~ip_dst:(Ipv4_addr.of_int ip_b) ~proto:6
      ~l4_src:1000 ~l4_dst:80 ()
  in
  (* spoofed sources, in class-key order: the key just above the cap
     loops through sw2, every other one is delivered to host 2 *)
  let srcs =
    List.init (orphan_cap + 8) (fun i -> 0x0B000000 + i)
    |> List.sort (fun a b -> Flow_key.compare (key_of a) (key_of b))
  in
  let looping = List.nth srcs orphan_cap in
  let exact src ~out = rule ~match_:(exact_match ~src ~dst:ip_b) ~instructions:(output out) () in
  let step = ref 0 in
  let apply u =
    step := !step + 1;
    let got = Incr.apply incr ~now:(0.01 *. float_of_int !step) u in
    let want = V.check (Incr.model incr) in
    let same =
      List.compare_lengths want got = 0 && List.for_all2 (fun a b -> D.compare a b = 0) want got
    in
    if not same then
      Alcotest.failf "step %d: full rescan:@.%s@.incremental:@.%s" !step (pp_diag_set want)
        (pp_diag_set got);
    Alcotest.(check bool) (Printf.sprintf "step %d audit" !step) true (Incr.check_equivalence incr);
    got
  in
  let add dpid r = apply (Incr.Table_delta { dpid; table_id = 0; added = [ r ]; removed = [] }) in
  let has_loop = List.exists (fun (d : D.t) -> d.D.invariant = D.Loop) in
  List.iter
    (fun src -> ignore (add 1 (exact src ~out:(if src = looping then 2 else 4))))
    srcs;
  let looped = add 2 (exact looping ~out:2) in
  (* two host-pair classes plus the capped orphans; the loop is parked *)
  Alcotest.(check int) "classes capped" (2 + orphan_cap) (Incr.class_count incr);
  Alcotest.(check bool) "loop parked in overflow" false (has_loop looped);
  let promoted =
    apply
      (Incr.Table_delta
         { dpid = 1; table_id = 0; added = []; removed = [ exact (List.hd srcs) ~out:4 ] })
  in
  Alcotest.(check int) "still capped" (2 + orphan_cap) (Incr.class_count incr);
  Alcotest.(check bool) "promoted key's loop found" true (has_loop promoted)

(* Only a forged snapshot can attach two hosts with one IP.  Both paths
   read one host index, so they pick the same (first) host: its entry
   delivers, while the second host's entry would loop via sw3. *)
let test_duplicate_host_ip () =
  let r ~out = rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output out) () in
  let s =
    snap
      ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1; host ~ip:ip_a ~dpid:2 ~port:1 ]
      [ node 1
          ~rules:[ (0, [ r ~out:2 ]) ]
          ~ports:[ port 1 ~endpoint:(S.To_host 1); port 2 ~endpoint:(S.To_host 3) ];
        node 2
          ~rules:[ (0, [ r ~out:2 ]) ]
          ~ports:
            [ port 1 ~endpoint:(S.To_host 2);
              port 2 ~endpoint:(S.To_switch { peer = 3; peer_in_port = 1 });
              port 3 ~endpoint:(S.To_switch { peer = 3; peer_in_port = 2 }) ];
        node 3
          ~rules:[ (0, [ r ~out:2 ]) ]
          ~ports:
            [ port 1 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 2 });
              port 2 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 3 }) ] ]
  in
  let incr = Incr.create s in
  Alcotest.(check (list string)) "same findings"
    (List.map D.to_string (V.check s))
    (List.map D.to_string (Incr.diagnostics incr));
  Alcotest.(check bool) "audit agrees" true (Incr.check_equivalence incr)

(* A rule pinning ip_src/32, ip_dst/32 and the protocol but no ports
   covers every exact rule of that host pair, whatever its ports: the
   shadow pass must compare it with them, in the rescan and in the
   incremental ledger alike. *)
let test_portless_shadow () =
  let hi =
    rule ~priority:20
      ~match_:
        (Of_match.wildcard
        |> Of_match.with_ip_src (Ipv4_addr.of_int ip_a)
        |> Of_match.with_ip_dst (Ipv4_addr.of_int ip_b)
        |> Of_match.with_ip_proto 6)
      ~instructions:(output 1) ()
  in
  let lo = exact_rule ~priority:5 (output 1) in
  let ports = [ port 1 ~endpoint:(S.To_host 1) ] in
  let d =
    check_one ~inv:D.Shadow ~sev:D.Warning (snap [ node 1 ~rules:[ (0, [ hi; lo ]) ] ~ports ])
  in
  Alcotest.(check bool) "names the exact rule" true (d.D.rule = Some (D.Rule { priority = 5; match_ = lo.Flow_table.match_ }));
  let incr = Incr.create (snap [ node 1 ~rules:[ (0, []) ] ~ports ]) in
  let apply ~added ~removed =
    let got =
      Incr.apply incr ~now:0.0 (Incr.Table_delta { dpid = 1; table_id = 0; added; removed })
    in
    let want = V.check (Incr.model incr) in
    Alcotest.(check bool) "incremental = rescan" true
      (List.compare_lengths want got = 0 && List.for_all2 (fun a b -> D.compare a b = 0) want got);
    Alcotest.(check bool) "audit agrees" true (Incr.check_equivalence incr);
    List.length got
  in
  Alcotest.(check int) "exact rule alone" 0 (apply ~added:[ lo ] ~removed:[]);
  Alcotest.(check int) "covering rule added" 1 (apply ~added:[ hi ] ~removed:[]);
  Alcotest.(check int) "covering rule removed" 0 (apply ~added:[] ~removed:[ hi ])

(* ------------------------------------------------------------------ *)
(* Grading in place against the list-built grading.  [Ref_blackhole] is
   the blackhole grading as it was before clean rules were graded in
   place: every rule builds its actions list, goto option and messages,
   and asks the snapshot's option-returning lookups.  The in-place
   grading must find exactly what it finds, in the same order. *)

module Ref_blackhole = struct
  let peer_live snap dpid =
    let device_ok = match S.node snap dpid with Some n -> not n.S.failed | None -> false in
    let overlay_ok =
      match snap.S.overlay with
      | None -> true
      | Some ov -> (
        match List.find_opt (fun (d, _, _) -> d = dpid) ov.S.vswitches with
        | Some (_, alive, _) -> alive
        | None -> true)
    in
    device_ok && overlay_ok

  let check_output snap (n : S.node) ~invariant ~dead_severity ?table_id ?rule port_id =
    let mk = D.make ~dpid:n.S.dpid ?table_id ?rule ~invariant in
    match S.find_port n port_id with
    | None -> [ mk ~severity:D.Error (Printf.sprintf "output to unknown port %d" port_id) ]
    | Some p ->
      let link =
        match (p.S.link_up, p.S.endpoint) with
        | None, _ | _, S.Disconnected ->
          [ mk ~severity:D.Error
              (Printf.sprintf "output to port %d, which has no outgoing link" port_id) ]
        | Some false, _ ->
          [ mk ~severity:D.Warning
              (Printf.sprintf "output to port %d, whose link is administratively down" port_id) ]
        | Some true, _ -> []
      in
      let endpoint =
        match p.S.endpoint with
        | S.To_switch { peer; _ } when not (peer_live snap peer) ->
          [ mk ~severity:dead_severity
              (match p.S.tunnel with
              | Some tid ->
                Printf.sprintf "port %d is tunnel %d to dead switch %d" port_id tid peer
              | None -> Printf.sprintf "port %d leads to dead switch %d" port_id peer) ]
        | _ -> []
      in
      link @ endpoint

  let rule snap (n : S.node) ~table_id (r : Flow_table.rule) =
    let subject = D.Rule { priority = r.Flow_table.priority; match_ = r.Flow_table.match_ } in
    let mk = D.make ~dpid:n.S.dpid ~table_id ~rule:subject in
    let actions = Of_action.actions_of_instructions r.Flow_table.instructions in
    let goto = Of_action.goto_of_instructions r.Flow_table.instructions in
    let inert =
      if actions = [] && goto = None then
        [ mk ~severity:D.Error ~invariant:D.Blackhole
            "rule has no actions and no goto: every hit is silently dropped" ]
      else []
    in
    let outputs =
      List.concat_map
        (function
          | Of_action.Output (Of_types.Port_no.Physical p) ->
            check_output snap n ~invariant:D.Blackhole ~dead_severity:D.Warning ~table_id
              ~rule:subject p
          | Of_action.Group gid ->
            if List.exists (fun (g : Group_table.group) -> g.group_id = gid) n.S.groups then []
            else
              [ mk ~severity:D.Error ~invariant:D.Blackhole
                  (Printf.sprintf "rule points at unknown group %d" gid) ]
          | _ -> [])
        actions
    in
    let goto_diags =
      match goto with
      | None -> []
      | Some next ->
        if next <= table_id || next >= n.S.num_tables then
          [ mk ~severity:D.Error ~invariant:D.Blackhole
              (Printf.sprintf "goto table %d is outside the pipeline (tables %d..%d)" next
                 (table_id + 1) (n.S.num_tables - 1)) ]
        else if Option.fold ~none:true ~some:Classifier.is_empty (S.table n next) then
          [ mk ~severity:D.Error ~invariant:D.Blackhole
              (Printf.sprintf "goto into empty table %d: every hit misses and is dropped" next) ]
        else []
    in
    inert @ outputs @ goto_diags
end

(* A node (dpid 1) with random ports, groups and tables, in a snapshot
   whose other switches are live (2), failed (3) and live but dead to
   the overlay (4); dpid 9 is unknown.  The graded rule sits in a random
   table with random instructions. *)
let grading_gen =
  let open QCheck2.Gen in
  (* weighted towards clean outputs, so that whole rules grade clean and
     the goto checks decide *)
  let endpoint =
    frequency
      [ (1, return S.Disconnected); (1, return S.Opaque); (3, return (S.To_host 1));
        (3, map (fun peer -> S.To_switch { peer; peer_in_port = 1 }) (oneofl [ 2; 3; 4; 9 ])) ]
  in
  let port_gen =
    let* port_id = int_range 1 4
    and* link_up = frequency [ (4, return (Some true)); (1, return (Some false)); (1, return None) ]
    and* endpoint = endpoint
    and* tunnel = opt (return 7) in
    return (port ?tunnel ~link_up ~endpoint port_id)
  in
  let action =
    oneof
      [ map (fun p -> Of_action.Output (Of_types.Port_no.Physical p)) (int_range 0 5);
        oneofl
          Of_types.Port_no.
            [ Of_action.Output Controller; Of_action.Output In_port; Of_action.Output All;
              Of_action.Pop_mpls; Of_action.Push_mpls 5 ];
        map (fun g -> Of_action.Group g) (int_range 1 4) ]
  in
  let instruction =
    oneof
      [ map (fun a -> Of_action.Apply_actions a) (list_size (int_range 0 3) action);
        map (fun t -> Of_action.Goto_table t) (int_range 0 4) ]
  in
  let* ports = list_size (int_range 0 4) port_gen
  and* gids = list_size (int_range 0 3) (int_range 1 4)
  and* num_tables = int_range 1 4
  and* tables = list_size (int_range 0 5) (pair (int_range 0 4) (frequency [ (3, return true); (1, return false) ]))
  and* table_id = int_range 0 3
  and* instructions = list_size (int_range 0 4) instruction
  and* overlay = bool in
  let groups =
    List.map
      (fun gid -> group gid ~buckets:[ bucket [ Of_action.Output (Of_types.Port_no.Physical 1) ] ])
      (List.sort_uniq compare gids)
  in
  let filler = rule ~priority:1 ~match_:Of_match.wildcard ~instructions:(output 1) () in
  let rules = List.map (fun (id, filled) -> (id, if filled then [ filler ] else [])) tables in
  let overlay =
    if overlay then
      Some
        { S.vswitches = [ (2, true, false); (4, false, false) ]; uplinks = []; tunnel_origins = [];
          covers = []; mesh = []; deliveries = [] }
    else None
  in
  let n = node 1 ~num_tables ~rules ~groups ~ports in
  let s = snap ?overlay [ n; node 2; node 3 ~failed:true; node 4 ] in
  return (s, n, table_id, rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions ())

let print_grading (_, (n : S.node), table_id, (r : Flow_table.rule)) =
  let pp_instr = function
    | Of_action.Goto_table t -> Printf.sprintf "goto %d" t
    | Of_action.Apply_actions a -> Printf.sprintf "apply[%d]" (List.length a)
  in
  Printf.sprintf "table %d of %d, %d ports, %d groups: %s" table_id n.S.num_tables
    (List.length n.S.ports) (List.length n.S.groups)
    (String.concat "; " (List.map pp_instr r.Flow_table.instructions))

let test_grading_in_place =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:5000 ~name:"in-place grading = list-built grading"
       ~print:print_grading grading_gen (fun (s, n, table_id, r) ->
         let got = V.Inv_blackhole.rule s n ~table_id r
         and want = Ref_blackhole.rule s n ~table_id r in
         List.equal (fun a b -> D.compare a b = 0 && a.D.message = b.D.message) got want
         || QCheck2.Test.fail_reportf "in place:@.%s@.list-built:@.%s" (pp_diag_set got)
              (pp_diag_set want)))

(* The audit's seed selection against {!Inv_loop.Capped}: offering every
   key to one capped selection per kind must leave what [select] returns
   for the matches pinning them.  Keys come from a small domain, so
   multisets repeat keys and tie on leading fields; caps run from 1 to
   both real caps, with key counts on both sides. *)
let key_of_index i =
  Flow_key.make
    ~ip_src:(Ipv4_addr.of_int (0x0A000000 + (i / 96)))
    ~ip_dst:(Ipv4_addr.of_int (0x0A000100 + (i / 32 mod 3)))
    ~proto:(if i / 16 mod 2 = 0 then 6 else 17)
    ~l4_src:(i / 4 mod 4) ~l4_dst:(i mod 4) ()

let selection_gen =
  let open QCheck2.Gen in
  let cap = oneofl [ 1; 2; 5; 17; V.Inv_loop.max_orphan_keys; V.Inv_loop.max_seed_keys ] in
  let* known_cap = cap and* orphan_cap = cap in
  let big = max known_cap orphan_cap in
  let* domain = int_range 1 ((2 * big) + 8) in
  let* keys = list_size (int_range 0 ((2 * big) + 16)) (int_range 0 (domain - 1)) in
  return (known_cap, orphan_cap, keys)

let test_seed_selection =
  let known ip = ip land 2 = 0 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"seed selection = capped insert"
       ~print:(fun (kc, oc, keys) ->
         Printf.sprintf "caps %d/%d, %d keys" kc oc (List.length keys))
       selection_gen
       (fun (known_cap, orphan_cap, keys) ->
         let keys = List.map key_of_index keys in
         let matches = List.map Of_match.exact_flow keys in
         let ck = V.Inv_loop.Capped.create known_cap
         and co = V.Inv_loop.Capped.create orphan_cap in
         List.iter
           (fun (k : Flow_key.t) ->
             let c = if known (Ipv4_addr.to_int k.Flow_key.ip_src) then ck else co in
             ignore (V.Inv_loop.Capped.offer c k))
           keys;
         let got_k, got_o =
           V.Inv_loop.select ~known ~known_cap ~orphan_cap (fun f -> List.iter f matches)
         in
         let elements (c : V.Inv_loop.Capped.t) = Flow_key.Set.elements c.V.Inv_loop.Capped.keys in
         let same a b = List.equal (fun x y -> Flow_key.compare x y = 0) a b in
         (same got_k (elements ck) && same got_o (elements co))
         || QCheck2.Test.fail_reportf "known %d want %d, orphan %d want %d" (List.length got_k)
              (List.length (elements ck)) (List.length got_o) (List.length (elements co))))

(* [pins_key] agrees with [Of_match.flow_key] on random matches. *)
let test_pins_key =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"pins_key = flow_key is Some" subject_gen
       (fun (_, m) -> V.Inv_loop.pins_key m = Option.is_some (Of_match.flow_key m)))

(* ------------------------------------------------------------------ *)
(* Allocation on the clean path: a finding's text is built only when a
   finding is made.  Printing every checked rule eagerly cost 1838 minor
   words per rule in the blackhole pass and 2175 in a full audit (OCaml
   5.1).  Building each rule's actions list, goto option and subject
   before grading it still cost 57 and 268; a clean rule is now graded
   in place, allocating nothing, and the audit measured 128 words per
   rule (the model copy, the seed selection and one class walk per
   rule), bounded here with 25 % headroom. *)

let clean_rules = 2048

let clean_snapshot () =
  let exact i =
    rule
      ~match_:(Of_match.with_l4_src (1000 + i) (exact_match ~src:ip_a ~dst:ip_b))
      ~instructions:(output 1) ()
  in
  snap ~managed:[ 1 ]
    ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1 ]
    [ node 1
        ~rules:[ (0, List.init clean_rules exact @ [ miss_rule () ]) ]
        ~ports:[ port 1 ~endpoint:(S.To_host 1) ] ]

let minor_words_per_rule f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. before) /. float_of_int clean_rules

let test_clean_path_alloc () =
  let s = clean_snapshot () in
  Alcotest.(check int) "clean" 0 (List.length (V.check s));
  let blackhole =
    List.find (fun (module I : V.Invariant.S) -> I.name = "blackhole") V.Invariant.all
  in
  let module B = (val blackhole) in
  let bh = minor_words_per_rule (fun () -> B.snapshot s) in
  let incr = Incr.create s in
  let equiv = minor_words_per_rule (fun () -> Incr.check_equivalence incr) in
  Alcotest.(check bool) "audit agrees" true (Incr.check_equivalence incr);
  if bh >= 1.0 then Alcotest.failf "blackhole pass: %.2f words per rule" bh;
  if equiv > 128.0 *. 1.25 then Alcotest.failf "full audit: %.0f words per rule" equiv

(* One class across a tunnel: host a on sw1 port 1, sw1 sends the flow
   out tunnel 7 (port 10007) to sw2, which strips the label on arrival
   and delivers to host b.  Two hops, one encap and one decap.  A walk
   that consed its path, built a step record and a (tunnel id, packet)
   pair per hop, found ports and groups through closures and forged a
   packet per entry point cost 94 words per hop here (OCaml 5.1); on its
   path stack it measured 34.5: the forged packet, the per-hop lookup
   context and option, and the packet copies the encap and decap make.
   The bound gives 25 % headroom. *)
let tunnel_path () =
  snap
    ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1; host ~ip:ip_b ~dpid:2 ~port:3 ]
    [ node 1
        ~rules:[ (0, [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output 10007) () ]) ]
        ~ports:
          [ port 1 ~endpoint:(S.To_host 1);
            port 10007 ~tunnel:7 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 10007 }) ];
      node 2
        ~rules:[ (0, [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output 3) () ]) ]
        ~ports:
          [ port 10007 ~tunnel:7 ~link_up:None ~endpoint:S.Disconnected;
            port 3 ~endpoint:(S.To_host 2) ] ]

let test_clean_walk_alloc () =
  let s = tunnel_path () in
  Alcotest.(check int) "clean" 0 (List.length (V.check s));
  let env = V.Inv_loop.make_env s in
  let key =
    Flow_key.make ~ip_src:(Ipv4_addr.of_int ip_a) ~ip_dst:(Ipv4_addr.of_int ip_b) ~proto:6
      ~l4_src:1000 ~l4_dst:80 ()
  in
  let entry = [ (1, 1) ] in
  let _, prev = V.Inv_loop.walk_class env ~key ~prev:[] entry in
  Alcotest.(check (list int)) "touched" [ 1; 2 ] prev;
  let walks = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to walks do
    let _, touched = V.Inv_loop.walk_class env ~key ~prev entry in
    if touched != prev then Alcotest.fail "an unchanged visited set is the previous list"
  done;
  let per_hop = (Gc.minor_words () -. before) /. float_of_int (2 * walks) in
  if per_hop > 34.5 *. 1.25 then Alcotest.failf "clean class walk: %.1f words per hop" per_hop

(* Loops through a tunnel pair: sw1 port 10007 is tunnel 7 to sw2,
   sw2 port 10008 is tunnel 8 back to sw1, and each switch strips its
   tunnel's label on arrival.  With plain forwarding the walk revisits
   (sw2, 10007) with the same encap stack; when sw1 also pushes label 5
   every lap, the stacks differ and the walk runs out of hops.  Both
   witnesses are pinned byte for byte: the walk builds them from its
   path stack only when it reports. *)
let tunnel_pair ~sw1 =
  snap
    ~hosts:[ host ~ip:ip_a ~dpid:1 ~port:1 ]
    [ node 1
        ~rules:[ (0, [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:sw1 () ]) ]
        ~ports:
          [ port 1 ~endpoint:(S.To_host 1);
            port 10007 ~tunnel:7 ~endpoint:(S.To_switch { peer = 2; peer_in_port = 10007 });
            port 10008 ~tunnel:8 ~link_up:None ~endpoint:S.Disconnected ];
      node 2
        ~rules:[ (0, [ rule ~match_:(exact_match ~src:ip_a ~dst:ip_b) ~instructions:(output 10008) () ]) ]
        ~ports:
          [ port 10007 ~tunnel:7 ~link_up:None ~endpoint:S.Disconnected;
            port 10008 ~tunnel:8 ~endpoint:(S.To_switch { peer = 1; peer_in_port = 10008 }) ] ]

let test_loop_witness_through_tunnels () =
  let loops s =
    List.filter_map
      (fun (d : D.t) -> if d.D.invariant = D.Loop then Some (D.to_string d) else None)
      (V.check s)
  in
  Alcotest.(check (list string)) "revisited"
    [ "[error] loop at dpid 2: forwarding loop: (dpid 2, in-port 10007) revisited [witness: \
       10.0.0.1:1000->10.0.0.2:80/6 via 1:1 -> 2:10007 -> 1:10008]" ]
    (loops (tunnel_pair ~sw1:(output 10007)));
  let laps =
    String.concat " -> "
      ("1:1" :: List.init (V.Inv_loop.max_hops - 1) (fun i -> if i mod 2 = 0 then "2:10007" else "1:10008"))
  in
  Alcotest.(check (list string)) "hop budget"
    [ "[error] loop at dpid 1: hop budget (64) exhausted: probable forwarding loop [witness: \
       10.0.0.1:1000->10.0.0.2:80/6 via " ^ laps ^ "]" ]
    (loops
       (tunnel_pair
          ~sw1:
            [ Of_action.Apply_actions
                [ Of_action.Push_mpls 5; Of_action.Output (Of_types.Port_no.Physical 10007) ] ]))

(* ------------------------------------------------------------------ *)
(* Clean real topologies: the lint scenarios must stay diagnostic-free *)

let test_lint_scenarios_clean () =
  List.iter
    (fun (name, diags, (st : V.Incremental.stats)) ->
      Alcotest.(check int) (Printf.sprintf "%s clean" name) 0 (List.length diags);
      Alcotest.(check int) (Printf.sprintf "%s audits agree" name) 0 st.equiv_mismatches)
    (Scotch_experiments.Lint.watch_all ~seed:7
       ~only:[ "scotch-net-idle"; "scotch-net-active" ]
       ())

(* ------------------------------------------------------------------ *)
(* The hooks' metrics *)

(* [scotch_verify_installs_issued_total] counts the install batches
   Scotch sends once the hooks are in, on the direct and on the
   reliable path: one per [send_batch] or lone FlowMod.  A small seeded
   flood that activates the overlay and installs physical paths, with
   the counts pinned for the seed. *)
let test_installs_issued () =
  let installs_issued ~reconcile =
    Scotch_obs.Obs.reset ();
    let config =
      { Scotch_core.Config.default with Scotch_core.Config.verify = Scotch_core.Config.Continuous }
    in
    let module Testbed = Scotch_experiments.Testbed in
    let module Source = Scotch_workload.Source in
    let net = Testbed.scotch_net ~seed:42 ~config ~reconcile () in
    Alcotest.(check bool) "verifier installed" true (net.Testbed.verify <> None);
    Source.start (Testbed.attack_source net ~rate:400.0 ());
    Source.start (Testbed.client_source net ~i:0 ~rate:20.0 ());
    Testbed.run_until net ~until:1.0;
    let c = Scotch_core.Scotch.counters net.Testbed.app in
    Alcotest.(check int) "overlay activated" 1 c.Scotch_core.Scotch.activations;
    (List.find
       (fun s -> s.Scotch_obs.Registry.s_name = "scotch_verify_installs_issued_total")
       (Scotch_obs.Registry.samples (Scotch_obs.Obs.registry ())))
      .Scotch_obs.Registry.s_value
  in
  Alcotest.(check (float 0.0)) "direct path" 687.0 (installs_issued ~reconcile:false);
  Alcotest.(check (float 0.0)) "reliable path" 680.0 (installs_issued ~reconcile:true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scotch_verify"
    [ ( "loop",
        [ Alcotest.test_case "two-switch loop detected" `Quick test_loop;
          Alcotest.test_case "broken loop is clean" `Quick test_loop_broken_is_clean;
          Alcotest.test_case "action semantics" `Quick test_loop_action_semantics;
          Alcotest.test_case "follows the datapath tie-break" `Quick test_loop_follows_tie_break;
          Alcotest.test_case "witness through a tunnel pair" `Quick
            test_loop_witness_through_tunnels ] );
      ( "blackhole",
        [ Alcotest.test_case "disconnected port" `Quick test_blackhole_disconnected_port;
          Alcotest.test_case "empty instructions" `Quick test_blackhole_empty_instructions;
          Alcotest.test_case "goto empty table" `Quick test_blackhole_goto_empty_table ] );
      ( "shadow",
        [ Alcotest.test_case "covered rule warned" `Quick test_shadowed_rule;
          Alcotest.test_case "disjoint rules clean" `Quick test_no_shadow_when_disjoint;
          Alcotest.test_case "port-less cover warned" `Quick test_portless_shadow ] );
      ( "group",
        [ Alcotest.test_case "bucket to crashed vswitch" `Quick test_group_bucket_to_crashed_vswitch;
          Alcotest.test_case "empty bucket list" `Quick test_group_empty_buckets;
          Alcotest.test_case "empty group under the walk" `Quick test_group_empty_hit_by_walk ] );
      ( "coverage",
        [ Alcotest.test_case "missing table-miss" `Quick test_missing_table_miss;
          Alcotest.test_case "table-miss present" `Quick test_table_miss_present_is_clean;
          Alcotest.test_case "dead cover" `Quick test_cover_without_alive_vswitch;
          Alcotest.test_case "uplink origin missing" `Quick test_uplink_missing_origin ] );
      ( "rendering",
        [ Alcotest.test_case "blackhole" `Quick test_render_blackhole;
          Alcotest.test_case "shadow" `Quick test_render_shadow;
          Alcotest.test_case "divergence" `Quick test_render_divergence;
          Alcotest.test_case "group sanity" `Quick test_render_group;
          Alcotest.test_case "report order" `Quick test_render_order;
          test_render_injective;
          Alcotest.test_case "clean path allocation" `Quick test_clean_path_alloc;
          Alcotest.test_case "clean class walk allocation" `Quick test_clean_walk_alloc ] );
      ( "in-place",
        [ test_grading_in_place; test_seed_selection; test_pins_key ] );
      ( "incremental",
        [ test_differential;
          test_rescan_order;
          Alcotest.test_case "orphan cap promotion" `Quick test_orphan_cap_promotion;
          Alcotest.test_case "duplicate host ip" `Quick test_duplicate_host_ip ] );
      ( "clean-topologies",
        [ Alcotest.test_case "lint scenarios" `Quick test_lint_scenarios_clean ] );
      ("hooks", [ Alcotest.test_case "installs issued metric" `Quick test_installs_issued ]) ]
