(* Tests for Scotch_openflow: match semantics, actions/instructions,
   message construction and wire-codec round trips. *)

open Scotch_openflow
open Scotch_packet

let mk_packet ?(src_port = 1234) ?(dst_port = 80) () =
  Packet.tcp_syn ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 10 0 0 1)
    ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port ~dst_port ()

let ctx ?tunnel_id ?(in_port = 1) pkt = Of_match.context ?tunnel_id ~in_port pkt

(* ------------------------------------------------------------------ *)
(* Port numbers *)

let test_port_no_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Of_types.Port_no.equal p (Of_types.Port_no.of_int (Of_types.Port_no.to_int p))))
    [ Of_types.Port_no.Physical 1; Physical 10042; In_port; Controller; All; Local; Any ]

let test_port_no_invalid () =
  Alcotest.(check bool) "reserved gap rejected" true
    (try
       ignore (Of_types.Port_no.of_int 0xFFFFFF01);
       false
     with Invalid_argument _ -> true)

let test_packet_in_reason () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "roundtrip" true
        (Of_types.Packet_in_reason.of_int (Of_types.Packet_in_reason.to_int r) = r))
    [ Of_types.Packet_in_reason.No_match; Action ]

(* ------------------------------------------------------------------ *)
(* Match semantics *)

let test_wildcard_matches_everything () =
  Alcotest.(check bool) "wildcard" true (Of_match.matches Of_match.wildcard (ctx (mk_packet ())));
  Alcotest.(check bool) "is_wildcard" true (Of_match.is_wildcard Of_match.wildcard);
  Alcotest.(check int) "specificity 0" 0 (Of_match.specificity Of_match.wildcard)

let test_in_port_match () =
  let m = Of_match.with_in_port 3 Of_match.wildcard in
  Alcotest.(check bool) "matches port 3" true (Of_match.matches m (ctx ~in_port:3 (mk_packet ())));
  Alcotest.(check bool) "rejects port 4" false (Of_match.matches m (ctx ~in_port:4 (mk_packet ())))

let test_exact_flow_match () =
  let pkt = mk_packet () in
  let m = Of_match.exact_flow (Packet.flow_key pkt) in
  Alcotest.(check bool) "matches own packet" true (Of_match.matches m (ctx pkt));
  let other = mk_packet ~src_port:9999 () in
  Alcotest.(check bool) "rejects other flow" false (Of_match.matches m (ctx other));
  Alcotest.(check int) "five fields" 5 (Of_match.specificity m)

(* [exact_flow] is one record literal: it must build what the chained
   [with_*] builders build, for any 5-tuple (the port extremes
   included), and allocate no more than that record. *)
let key_gen =
  let open QCheck.Gen in
  let addr = map Ipv4_addr.of_int (int_bound 0xFFFFFFFF) in
  let port = frequency [ (1, return 0); (1, return 65535); (4, int_bound 65535) ] in
  let+ ip_src = addr and+ ip_dst = addr and+ proto = int_bound 255 and+ l4_src = port
  and+ l4_dst = port in
  Flow_key.make ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ()

let prop_exact_flow_literal =
  QCheck.Test.make ~name:"exact_flow = the chained with_* build" ~count:500
    (QCheck.make ~print:Flow_key.to_string key_gen)
    (fun (k : Flow_key.t) ->
      Of_match.equal (Of_match.exact_flow k)
        Of_match.(
          wildcard |> with_ip_src k.Flow_key.ip_src |> with_ip_dst k.Flow_key.ip_dst
          |> with_ip_proto k.Flow_key.proto |> with_l4_src k.Flow_key.l4_src
          |> with_l4_dst k.Flow_key.l4_dst))

let test_exact_flow_allocation () =
  let k = Packet.flow_key (mk_packet ()) in
  let per_call = Minor.per_call 1000 (fun () -> Of_match.exact_flow k) in
  Alcotest.(check bool) (Printf.sprintf "%.3f words per call <= 26" per_call) true
    (per_call <= 26.0)

let test_masked_ip_match () =
  let m =
    Of_match.with_ip_src ~mask:(Ipv4_addr.prefix_mask 8) (Ipv4_addr.make 10 0 0 0)
      Of_match.wildcard
  in
  Alcotest.(check bool) "in prefix" true (Of_match.matches m (ctx (mk_packet ())));
  let outside =
    Packet.tcp_syn ~flow_id:2 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
      ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 11 0 0 1)
      ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port:1 ~dst_port:80 ()
  in
  Alcotest.(check bool) "out of prefix" false (Of_match.matches m (ctx outside))

let test_mpls_match () =
  let m = Of_match.with_mpls_label 42 Of_match.wildcard in
  let plain = mk_packet () in
  Alcotest.(check bool) "no label" false (Of_match.matches m (ctx plain));
  let labeled = Packet.push_encap (Headers.Encap.mpls 42) plain in
  Alcotest.(check bool) "right label" true (Of_match.matches m (ctx labeled));
  let wrong = Packet.push_encap (Headers.Encap.mpls 7) plain in
  Alcotest.(check bool) "wrong label" false (Of_match.matches m (ctx wrong))

let test_tunnel_match () =
  let m = Of_match.with_tunnel_id 5 Of_match.wildcard in
  Alcotest.(check bool) "tunnel 5" true (Of_match.matches m (ctx ~tunnel_id:5 (mk_packet ())));
  Alcotest.(check bool) "no tunnel" false (Of_match.matches m (ctx (mk_packet ())));
  Alcotest.(check bool) "other tunnel" false (Of_match.matches m (ctx ~tunnel_id:6 (mk_packet ())))

let test_l4_and_proto_match () =
  let m = Of_match.(wildcard |> with_ip_proto 6 |> with_l4_dst 80) in
  Alcotest.(check bool) "tcp :80" true (Of_match.matches m (ctx (mk_packet ())));
  Alcotest.(check bool) "tcp :81" false
    (Of_match.matches m (ctx (mk_packet ~dst_port:81 ())))

(* ------------------------------------------------------------------ *)
(* Actions and instructions *)

let test_instruction_helpers () =
  let instrs =
    [ Of_action.Apply_actions [ Of_action.Push_mpls 1 ]; Of_action.Goto_table 1;
      Of_action.Apply_actions [ Of_action.Output (Of_types.Port_no.Physical 2) ] ]
  in
  Alcotest.(check int) "actions flattened" 2
    (List.length (Of_action.actions_of_instructions instrs));
  Alcotest.(check (option int)) "goto found" (Some 1)
    (Of_action.goto_of_instructions instrs);
  Alcotest.(check (option int)) "no goto" None
    (Of_action.goto_of_instructions (Of_action.output (Of_types.Port_no.Physical 1)))

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let roundtrip msg =
  let b = Of_wire.encode msg in
  Alcotest.(check int) "size" (Bytes.length b) (Of_wire.size msg);
  let msg' = Of_wire.decode b in
  Alcotest.(check int) "xid" msg.Of_msg.xid msg'.Of_msg.xid;
  msg'

let test_wire_simple_messages () =
  List.iter
    (fun payload ->
      let msg' = roundtrip (Of_msg.make ~xid:7 payload) in
      Alcotest.(check bool) "payload preserved" true (msg'.Of_msg.payload = payload))
    [ Of_msg.Echo_request; Of_msg.Echo_reply; Of_msg.Barrier_request; Of_msg.Barrier_reply;
      Of_msg.Error "table full"; Of_msg.Group_stats_request ]

let test_wire_flow_mod () =
  let fm =
    Of_msg.Flow_mod.add ~table_id:1 ~priority:10 ~idle_timeout:10.0 ~hard_timeout:30.5
      ~cookie:0x5C07C4EEL
      ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
      ~instructions:
        [ Of_action.Apply_actions [ Of_action.Push_mpls 3; Of_action.Pop_mpls ];
          Of_action.Goto_table 1 ]
      ()
  in
  let msg' = roundtrip (Of_msg.make ~xid:1 (Of_msg.Flow_mod fm)) in
  match msg'.Of_msg.payload with
  | Of_msg.Flow_mod fm' -> Alcotest.(check bool) "equal" true (fm = fm')
  | _ -> Alcotest.fail "wrong payload type"

let test_wire_group_mod () =
  let gm =
    Of_msg.Group_mod.add_select ~group_id:1
      ~buckets:
        [ Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical 10001) ];
          Of_msg.Group_mod.bucket
            [ Of_action.Output (Of_types.Port_no.Physical 10002) ] ]
  in
  let msg' = roundtrip (Of_msg.make ~xid:2 (Of_msg.Group_mod gm)) in
  match msg'.Of_msg.payload with
  | Of_msg.Group_mod gm' -> Alcotest.(check bool) "equal" true (gm = gm')
  | _ -> Alcotest.fail "wrong payload type"

let test_wire_packet_in_out () =
  let pkt = Packet.push_encap (Headers.Encap.mpls 9) (mk_packet ()) in
  let pi =
    Of_msg.Packet_in.make ~tunnel_id:44 ~reason:Of_types.Packet_in_reason.No_match ~in_port:3
      pkt
  in
  let msg' = roundtrip (Of_msg.make ~xid:3 (Of_msg.Packet_in pi)) in
  (match msg'.Of_msg.payload with
  | Of_msg.Packet_in pi' ->
    Alcotest.(check (option int)) "tunnel id" (Some 44) pi'.Of_msg.Packet_in.tunnel_id;
    Alcotest.(check int) "in_port" 3 pi'.Of_msg.Packet_in.in_port;
    Alcotest.(check int) "label survives" 9
      (Packet.outer_mpls_label pi'.Of_msg.Packet_in.packet)
  | _ -> Alcotest.fail "wrong payload type");
  let po = { Of_msg.Packet_out.in_port = 1; actions = [ Of_action.Pop_mpls ]; packet = pkt } in
  let msg' = roundtrip (Of_msg.make ~xid:4 (Of_msg.Packet_out po)) in
  match msg'.Of_msg.payload with
  | Of_msg.Packet_out po' ->
    Alcotest.(check bool) "actions" true (po'.Of_msg.Packet_out.actions = [ Of_action.Pop_mpls ])
  | _ -> Alcotest.fail "wrong payload type"

let test_wire_stats () =
  let stat =
    { Of_msg.Stats.table_id = 0; priority = 10;
      match_ = Of_match.exact_flow (Packet.flow_key (mk_packet ()));
      packet_count = 1234; byte_count = 567890; duration = 12.5; cookie = 7L }
  in
  let msg' = roundtrip (Of_msg.make ~xid:5 (Of_msg.Flow_stats_reply [ stat; stat ])) in
  match msg'.Of_msg.payload with
  | Of_msg.Flow_stats_reply [ s1; s2 ] ->
    Alcotest.(check bool) "stats equal" true (s1 = stat && s2 = stat)
  | _ -> Alcotest.fail "wrong payload"

let exact_stat i =
  let key = Packet.flow_key (mk_packet ~src_port:(i land 0xFFFF) ()) in
  { Of_msg.Stats.table_id = 0; priority = 10; match_ = Of_match.exact_flow key;
    packet_count = i; byte_count = 1500 * i; duration = 1.0; cookie = Int64.of_int i }

(* The multipart requests and replies the other wire tests skip.
   Telemetry floats travel as IEEE-754 bits, so values whose binary
   expansion fills all 52 mantissa bits must come back exact. *)
let test_wire_multipart () =
  let desc =
    { Of_msg.Stats.group_id = 9;
      buckets =
        [ Of_msg.Group_mod.bucket [ Of_action.Push_mpls 5; Of_action.Group 3 ];
          Of_msg.Group_mod.bucket [ Of_action.Pop_mpls ] ] }
  in
  let report =
    { Of_msg.Telemetry.rate = 1.0 /. 3.0; window = Float.pi;
      seen = 0xFFFFFFFF; sampled = 17;
      records =
        [ { Of_msg.Telemetry.key = Packet.flow_key (mk_packet ()); sampled = 11 };
          { key = Packet.flow_key (mk_packet ~src_port:65535 ~dst_port:0 ()); sampled = 6 } ] }
  in
  List.iteri
    (fun xid payload ->
      let msg' = roundtrip (Of_msg.make ~xid payload) in
      Alcotest.(check bool) (Of_msg.kind_name msg') true (msg'.Of_msg.payload = payload))
    [ Of_msg.Flow_stats_request
        { table_id = 0xFF; match_ = Of_match.with_in_port 3 Of_match.wildcard };
      Of_msg.Group_stats_request;
      Of_msg.Group_stats_reply [ desc; { Of_msg.Stats.group_id = 10; buckets = [] } ];
      Of_msg.Telemetry_request;
      Of_msg.Telemetry_reply report;
      Of_msg.Telemetry_reply Of_msg.Telemetry.empty ];
  match (roundtrip (Of_msg.make ~xid:0 (Of_msg.Telemetry_reply report))).Of_msg.payload with
  | Of_msg.Telemetry_reply r ->
    Alcotest.(check int64) "rate bits" (Int64.bits_of_float report.rate)
      (Int64.bits_of_float r.Of_msg.Telemetry.rate);
    Alcotest.(check int64) "window bits" (Int64.bits_of_float report.window)
      (Int64.bits_of_float r.Of_msg.Telemetry.window)
  | _ -> Alcotest.fail "wrong payload"

(* The u16 header length bounds a round trip at 64 KiB: the largest
   exact-stats reply that fits decodes, a 2000-record one (size counts
   it in full) is rejected rather than misread. *)
let test_wire_64k_limit () =
  let reply n = Of_msg.make ~xid:1 (Of_msg.Flow_stats_reply (List.init n exact_stat)) in
  let record = Of_wire.size (reply 1) - Of_wire.size (reply 0) in
  Alcotest.(check int) "exact-flow record bytes" 70 record;
  let fits = (0xFFFF - Of_wire.size (reply 0)) / record in
  (match (roundtrip (reply fits)).Of_msg.payload with
  | Of_msg.Flow_stats_reply stats -> Alcotest.(check int) "largest reply" fits (List.length stats)
  | _ -> Alcotest.fail "wrong payload");
  let big = reply 2000 in
  let b = Of_wire.encode big in
  Alcotest.(check int) "size counts the unsplit reply" (Of_wire.size big) (Bytes.length b);
  Alcotest.(check bool) "past 64 KiB" true (Bytes.length b > 0xFFFF);
  Alcotest.(check bool) "oversized reply rejected" true
    (try
       ignore (Of_wire.decode b);
       false
     with Of_wire.Parse_error _ -> true)

let test_wire_bad_version () =
  let b = Of_wire.encode (Of_msg.make ~xid:1 Of_msg.Echo_request) in
  Bytes.set_uint8 b 0 0x01;
  Alcotest.(check bool) "bad version raises" true
    (try
       ignore (Of_wire.decode b);
       false
     with Of_wire.Parse_error _ -> true)

let test_wire_bad_length () =
  let b = Of_wire.encode (Of_msg.make ~xid:1 Of_msg.Echo_request) in
  let b = Bytes.cat b (Bytes.make 3 'x') in
  Alcotest.(check bool) "length mismatch raises" true
    (try
       ignore (Of_wire.decode b);
       false
     with Of_wire.Parse_error _ -> true)

(* Fields with no meaning in the vocabulary are malformed input: each
   frame below is a valid encoding with one byte (or the Output port)
   overwritten, and decoding it raises Parse_error.  Layout offsets:
   the 8-byte header; then a Flow_mod's command, a Group_mod's command
   and type (its u32 group id, u16 bucket count and first bucket's u16
   weight follow at 10, 14 and 16), a multipart request's u16 subtype, a Packet-In's u32 buffer
   id then reason, and a Packet-Out's u32 in_port, u16 action count and
   first action. *)
let test_wire_malformed_fields () =
  let frame msg edits =
    let b = Of_wire.encode (Of_msg.make ~xid:1 msg) in
    List.iter (fun (off, v) -> Bytes.set_uint8 b off v) edits;
    b
  in
  let out p = Of_action.Output (Of_types.Port_no.Physical p) in
  let packet_out actions =
    Of_msg.Packet_out { Of_msg.Packet_out.in_port = 0; actions; packet = mk_packet () }
  in
  let packet_in =
    Of_msg.Packet_in
      (Of_msg.Packet_in.make ~reason:Of_types.Packet_in_reason.No_match ~in_port:1 (mk_packet ()))
  in
  let flow_mod =
    Of_msg.Flow_mod
      (Of_msg.Flow_mod.add ~match_:Of_match.wildcard
         ~instructions:[ Of_action.Apply_actions [] ] ())
  in
  let group_mod =
    Of_msg.Group_mod
      (Of_msg.Group_mod.add_select ~group_id:1 ~buckets:[ Of_msg.Group_mod.bucket [ out 1 ] ])
  in
  (* a one-field match: its count at byte 28 (after the Flow_mod's
     20-byte fixed part), the field id at 29 *)
  let mpls_flow_mod =
    Of_msg.Flow_mod
      (Of_msg.Flow_mod.add ~match_:(Of_match.with_mpls_label 16 Of_match.wildcard)
         ~instructions:[ Of_action.Apply_actions [] ] ())
  in
  (* a Group action then four Pop_mpls, recounted as one action: nine
     bytes, the length of the eight-byte MAC operand codes 6 and 7 once
     carried, so only the code itself is wrong *)
  let mac_action code =
    frame
      (packet_out [ Of_action.Group 1; Of_action.Pop_mpls; Of_action.Pop_mpls;
                    Of_action.Pop_mpls; Of_action.Pop_mpls ])
      [ (13, 1); (14, code) ]
  in
  List.iter
    (fun (what, b) ->
      match Of_wire.decode b with
      | m -> Alcotest.failf "%s decoded as %s" what (Of_msg.kind_name m)
      | exception Of_wire.Parse_error _ -> ()
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [ ("packet-in reason 7", frame packet_in [ (12, 7) ]);
      ("packet-in reason 2", frame packet_in [ (12, 2) ]);
      ( "output port 0xFFFFFFF0",
        frame (packet_out [ out 1 ]) [ (15, 0xFF); (16, 0xFF); (17, 0xFF); (18, 0xF0) ] );
      ("message type 0", frame Of_msg.Echo_request [ (1, 0) ]);
      ("multipart subtype 3", frame Of_msg.Group_stats_request [ (9, 3) ]);
      ("flow-mod command 1", frame flow_mod [ (8, 1) ]);
      ("group type 0", frame group_mod [ (9, 0) ]);
      ("group type 2", frame group_mod [ (9, 2) ]);
      ("bucket weight 0", frame group_mod [ (16, 0); (17, 0) ]);
      ("bucket weight 2", frame group_mod [ (16, 0); (17, 2) ]);
      ("group type 3", frame group_mod [ (9, 3) ]);
      ("action code 6", mac_action 6);
      ("action code 7", mac_action 7);
      ("action code 8", frame (packet_out [ Of_action.Pop_mpls ]) [ (14, 8) ]);
      ("action code 9", frame (packet_out [ Of_action.Pop_mpls ]) [ (14, 9) ]);
      ("action code 4", frame (packet_out [ Of_action.Push_mpls 1 ]) [ (14, 4) ]);
      ("action code 5", frame (packet_out [ Of_action.Pop_mpls ]) [ (14, 5) ]);
      ("match field 9", frame mpls_flow_mod [ (29, 9) ]) ]

(* qcheck: random matches round-trip *)
let match_gen =
  let open QCheck.Gen in
  let addr = map Ipv4_addr.of_int (int_bound 0xFFFFFFF) in
  let field_adders =
    [ map (fun p m -> Of_match.with_in_port p m) (int_bound 100);
      map (fun e m -> Of_match.with_eth_type e m) (int_bound 0xFFFF);
      map (fun a m -> Of_match.with_ip_src a m) addr;
      map2
        (fun a l m -> Of_match.with_ip_src ~mask:(Ipv4_addr.prefix_mask l) a m)
        addr (int_bound 32);
      map (fun a m -> Of_match.with_ip_dst a m) addr;
      map (fun p m -> Of_match.with_ip_proto p m) (int_bound 255);
      map (fun p m -> Of_match.with_l4_src p m) (int_bound 65535);
      map (fun p m -> Of_match.with_l4_dst p m) (int_bound 65535);
      map (fun l m -> Of_match.with_mpls_label l m) (int_bound 0xFFFFF);
      map (fun t m -> Of_match.with_tunnel_id t m) (int_bound 1000) ]
  in
  map
    (fun adders -> List.fold_left (fun m f -> f m) Of_match.wildcard adders)
    (list_size (int_bound 6) (oneof field_adders))

let prop_match_wire_roundtrip =
  QCheck.Test.make ~name:"match wire round-trip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Of_match.pp) match_gen)
    (fun m ->
      let fm =
        Of_msg.Flow_mod.add ~match_:m
          ~instructions:[ Of_action.Apply_actions [] ] ()
      in
      match
        (Of_wire.decode (Of_wire.encode (Of_msg.make ~xid:0 (Of_msg.Flow_mod fm)))).Of_msg.payload
      with
      | Of_msg.Flow_mod fm' -> Of_match.equal fm'.Of_msg.Flow_mod.match_ m
      | _ -> false)

let action_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun p -> Of_action.Output (Of_types.Port_no.Physical p)) (int_bound 20000);
      return (Of_action.Output Of_types.Port_no.Controller);
      return (Of_action.Output Of_types.Port_no.All);
      map (fun g -> Of_action.Group g) (int_bound 100);
      map (fun l -> Of_action.Push_mpls l) (int_bound 0xFFFFF);
      return Of_action.Pop_mpls ]

let prop_actions_wire_roundtrip =
  QCheck.Test.make ~name:"action list wire round-trip" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 8) action_gen))
    (fun actions ->
      let po = { Of_msg.Packet_out.in_port = 1; actions; packet = mk_packet () } in
      match
        (Of_wire.decode (Of_wire.encode (Of_msg.make ~xid:0 (Of_msg.Packet_out po)))).Of_msg.payload
      with
      | Of_msg.Packet_out po' -> po'.Of_msg.Packet_out.actions = actions
      | _ -> false)

(* qcheck: every message shape, for [size] against [encode] *)
let packet_gen =
  let open QCheck.Gen in
  let encap =
    oneof
      [ map Headers.Encap.mpls (int_bound 0xFFFFF);
        map Headers.Encap.vlan (int_bound 0xFFF) ]
  in
  let base =
    oneof
      [ map2 (fun src_port dst_port -> mk_packet ~src_port ~dst_port ()) (int_bound 65535)
          (int_bound 65535);
        map
          (fun payload_len ->
            Packet.udp_data ~payload_len ~flow_id:2 ~created:0.0 ~src_mac:(Mac.of_host_id 3)
              ~dst_mac:(Mac.of_host_id 4) ~ip_src:(Ipv4_addr.make 10 0 0 3)
              ~ip_dst:(Ipv4_addr.make 10 0 0 4) ~src_port:53 ~dst_port:5353 ())
          (int_bound 1400) ]
  in
  map2
    (fun p encaps -> List.fold_left (fun p e -> Packet.push_encap e p) p encaps)
    base (list_size (int_bound 2) encap)

let flow_stat_gen =
  let open QCheck.Gen in
  let+ table_id = int_bound 3
  and+ priority = int_bound 0xFFFF
  and+ match_ = match_gen
  and+ packet_count = int_bound 1_000_000
  and+ duration = map (fun n -> float_of_int n /. 1000.0) (int_bound 1_000_000) in
  { Of_msg.Stats.table_id; priority; match_; packet_count; byte_count = 64 * packet_count;
    duration; cookie = Int64.of_int priority }

let payload_gen =
  let open QCheck.Gen in
  let flow_stat = flow_stat_gen in
  let actions = list_size (int_bound 4) action_gen in
  let ms = map (fun n -> float_of_int n /. 1000.0) (int_bound 1_000_000) in
  let small_list g = list_size (int_bound 5) g in
  let instruction =
    oneof
      [ map (fun a -> Of_action.Apply_actions a) actions;
        map (fun t -> Of_action.Goto_table t) (int_bound 3) ]
  in
  let bucket = map Of_msg.Group_mod.bucket actions in
  let telemetry_record =
    let+ p = packet_gen and+ sampled = int_bound 1000 in
    { Of_msg.Telemetry.key = Packet.flow_key p; sampled }
  in
  oneof
    [ oneofl
        Of_msg.
          [ Echo_request; Echo_reply; Barrier_request; Barrier_reply; Group_stats_request;
            Telemetry_request ];
      map (fun s -> Of_msg.Error s) (string_size (int_bound 40));
      (let+ command = oneofl Of_msg.Flow_mod.[ Add; Delete ]
       and+ priority = int_bound 0xFFFF
       and+ match_ = match_gen
       and+ instructions = small_list instruction
       and+ idle_timeout = ms
       and+ hard_timeout = ms in
       Of_msg.Flow_mod
         { Of_msg.Flow_mod.command; table_id = 0; priority; match_; instructions; idle_timeout;
           hard_timeout; cookie = 0L });
      (let+ command = oneofl Of_msg.Group_mod.[ Add; Modify; Delete ]
       and+ group_id = int_bound 1000
       and+ buckets = small_list bucket in
       Of_msg.Group_mod { Of_msg.Group_mod.command; group_id; buckets });
      (let+ tunnel_id = opt (int_bound 1000)
       and+ in_port = int_bound 100
       and+ p = packet_gen in
       Of_msg.Packet_in
         (Of_msg.Packet_in.make ?tunnel_id ~reason:Of_types.Packet_in_reason.No_match ~in_port p));
      map2
        (fun actions packet -> Of_msg.Packet_out { Of_msg.Packet_out.in_port = 1; actions; packet })
        actions packet_gen;
      map2
        (fun table_id match_ -> Of_msg.Flow_stats_request { table_id; match_ })
        (int_bound 0xFF) match_gen;
      map (fun stats -> Of_msg.Flow_stats_reply stats) (small_list flow_stat);
      map
        (fun descs -> Of_msg.Group_stats_reply descs)
        (small_list
           (let+ group_id = int_bound 1000 and+ buckets = small_list bucket in
            { Of_msg.Stats.group_id; buckets }));
      (let+ rate = float_bound_inclusive 1.0
       and+ window = float_bound_inclusive 10.0
       and+ seen = int_bound 1_000_000
       and+ sampled = int_bound 1000
       and+ records = small_list telemetry_record in
       Of_msg.Telemetry_reply { Of_msg.Telemetry.rate; window; seen; sampled; records }) ]

let prop_size_matches_encode =
  QCheck.Test.make ~name:"size = encoded length, every payload" ~count:1000
    (QCheck.make ~print:Of_msg.kind_name
       QCheck.Gen.(map2 (fun xid p -> Of_msg.make ~xid p) (int_bound 0xFFFF) payload_gen))
    (fun m -> Of_wire.size m = Bytes.length (Of_wire.encode m))

(* A reader that walks a flow-stats reply charges it as the framing
   plus each record's size: that must be the reply's [Of_wire.size],
   for small replies and for those past the 64 KiB a u16 length can
   frame, which the ledger charges unsplit. *)
let prop_flow_stats_reply_charge =
  QCheck.Test.make ~name:"reply framing + record sizes = size, past 64 KiB too" ~count:60
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "%d records" (List.length l))
       QCheck.Gen.(
         list_size (frequency [ (2, int_bound 8); (1, int_range 2100 2600) ]) flow_stat_gen))
    (fun stats ->
      let walked =
        List.fold_left
          (fun n st -> n + Of_wire.flow_stat_size st)
          Of_wire.flow_stats_reply_framing stats
      in
      walked = Of_wire.size (Of_msg.make ~xid:0 (Of_msg.Flow_stats_reply stats)))

(* [Packet.size] is the byte count the channel charges for a carried
   packet (through [Of_wire.size]): it must be the rendered length. *)
let prop_packet_size =
  QCheck.Test.make ~name:"Packet.size = serialized length" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Packet.pp) packet_gen)
    (fun p -> Packet.size p = Bytes.length (Codec.serialize p))

(* fuzz: corrupting any byte of a valid message must either decode to
   SOME message or raise Parse_error — never crash, loop or escape as
   another exception *)
let prop_decode_total =
  let base =
    Of_wire.encode
      (Of_msg.make ~xid:3
         (Of_msg.Flow_mod
            (Of_msg.Flow_mod.add
               ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
               ~instructions:(Of_action.output (Of_types.Port_no.Physical 1))
               ())))
  in
  QCheck.Test.make ~name:"decode never crashes on corrupted input" ~count:1000
    QCheck.(pair small_nat (int_bound 255))
    (fun (pos, value) ->
      let b = Bytes.copy base in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos value;
      match Of_wire.decode b with
      | (_ : Of_msg.t) -> true
      | exception Of_wire.Parse_error _ -> true)

let () =
  Alcotest.run "scotch_openflow"
    [ ( "types",
        [ Alcotest.test_case "port_no roundtrip" `Quick test_port_no_roundtrip;
          Alcotest.test_case "port_no invalid" `Quick test_port_no_invalid;
          Alcotest.test_case "packet_in reason" `Quick test_packet_in_reason ] );
      ( "match",
        [ Alcotest.test_case "wildcard" `Quick test_wildcard_matches_everything;
          Alcotest.test_case "in_port" `Quick test_in_port_match;
          Alcotest.test_case "exact flow" `Quick test_exact_flow_match;
          QCheck_alcotest.to_alcotest prop_exact_flow_literal;
          Alcotest.test_case "exact flow allocation" `Quick test_exact_flow_allocation;
          Alcotest.test_case "masked ip" `Quick test_masked_ip_match;
          Alcotest.test_case "mpls label" `Quick test_mpls_match;
          Alcotest.test_case "tunnel id" `Quick test_tunnel_match;
          Alcotest.test_case "proto + l4" `Quick test_l4_and_proto_match ] );
      ("actions", [ Alcotest.test_case "instruction helpers" `Quick test_instruction_helpers ]);
      ( "wire",
        [ Alcotest.test_case "simple messages" `Quick test_wire_simple_messages;
          Alcotest.test_case "flow_mod" `Quick test_wire_flow_mod;
          Alcotest.test_case "group_mod" `Quick test_wire_group_mod;
          Alcotest.test_case "packet in/out" `Quick test_wire_packet_in_out;
          Alcotest.test_case "stats" `Quick test_wire_stats;
          Alcotest.test_case "multipart" `Quick test_wire_multipart;
          Alcotest.test_case "64 KiB limit" `Quick test_wire_64k_limit;
          Alcotest.test_case "bad version" `Quick test_wire_bad_version;
          Alcotest.test_case "bad length" `Quick test_wire_bad_length;
          Alcotest.test_case "malformed fields" `Quick test_wire_malformed_fields;
          QCheck_alcotest.to_alcotest prop_match_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_actions_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_size_matches_encode;
          QCheck_alcotest.to_alcotest prop_flow_stats_reply_charge;
          QCheck_alcotest.to_alcotest prop_packet_size;
          QCheck_alcotest.to_alcotest prop_decode_total ] ) ]
