(* Tests for Scotch_packet: addresses, headers, flow keys, the composite
   packet and the wire codec (round-trip property tests). *)

open Scotch_packet
open Headers

(* ------------------------------------------------------------------ *)
(* Mac *)

let test_mac_roundtrip () =
  let m = Mac.of_int 0x02000a0b0c0d in
  Alcotest.(check string) "to_string" "02:00:0a:0b:0c:0d" (Mac.to_string m);
  Alcotest.(check bool) "equal" true (Mac.equal m (Mac.of_int (Mac.to_int m)))

let test_mac_broadcast () =
  Alcotest.(check string) "broadcast" "ff:ff:ff:ff:ff:ff" (Mac.to_string Mac.broadcast)

let test_mac_of_host_id () =
  let a = Mac.of_host_id 1 and b = Mac.of_host_id 2 in
  Alcotest.(check bool) "distinct" false (Mac.equal a b);
  (* locally administered unicast: bit 1 of first octet set, bit 0 clear *)
  let first_octet = Mac.to_int a lsr 40 in
  Alcotest.(check int) "locally administered" 0x02 (first_octet land 0x03)

(* ------------------------------------------------------------------ *)
(* Ipv4_addr *)

let test_ip_roundtrip () =
  let a = Ipv4_addr.make 10 1 2 3 in
  Alcotest.(check string) "to_string" "10.1.2.3" (Ipv4_addr.to_string a);
  Alcotest.(check int) "make" 0x0A010203 (Ipv4_addr.to_int a)

let test_ip_prefix_mask () =
  Alcotest.(check int) "/0" 0 (Ipv4_addr.prefix_mask 0);
  Alcotest.(check int) "/32" 0xFFFFFFFF (Ipv4_addr.prefix_mask 32);
  Alcotest.(check int) "/8" 0xFF000000 (Ipv4_addr.prefix_mask 8);
  Alcotest.(check int) "/24" 0xFFFFFF00 (Ipv4_addr.prefix_mask 24)

let test_ip_matches () =
  let net = Ipv4_addr.to_int (Ipv4_addr.make 10 0 0 0) in
  let mask = Ipv4_addr.prefix_mask 8 in
  Alcotest.(check bool) "in prefix" true
    (Ipv4_addr.matches ~addr:(Ipv4_addr.make 10 9 8 7) ~value:net ~mask);
  Alcotest.(check bool) "out of prefix" false
    (Ipv4_addr.matches ~addr:(Ipv4_addr.make 11 0 0 1) ~value:net ~mask)

let test_ip_octet_range () =
  Alcotest.(check bool) "octet 256 rejected" true
    (try
       ignore (Ipv4_addr.make 256 0 0 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Flow keys *)

let key1 =
  Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1) ~ip_dst:(Ipv4_addr.make 10 0 0 2)
    ~proto:6 ~l4_src:1234 ~l4_dst:80 ()

let test_flow_key_equal () =
  let key1' =
    Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1) ~ip_dst:(Ipv4_addr.make 10 0 0 2)
      ~proto:6 ~l4_src:1234 ~l4_dst:80 ()
  in
  Alcotest.(check bool) "equal" true (Flow_key.equal key1 key1');
  Alcotest.(check bool) "hash equal" true (Flow_key.hash key1 = Flow_key.hash key1');
  let key2 = { key1 with Flow_key.l4_src = 1235 } in
  Alcotest.(check bool) "different" false (Flow_key.equal key1 key2)

let test_flow_key_hash_nonnegative () =
  let rng = Scotch_util.Rng.create 13 in
  for _ = 1 to 1000 do
    let k =
      Flow_key.make
        ~ip_src:(Ipv4_addr.of_int (Scotch_util.Rng.int rng max_int))
        ~ip_dst:(Ipv4_addr.of_int (Scotch_util.Rng.int rng max_int))
        ~proto:(Scotch_util.Rng.int rng 256)
        ~l4_src:(Scotch_util.Rng.int rng 65536)
        ~l4_dst:(Scotch_util.Rng.int rng 65536)
        ()
    in
    Alcotest.(check bool) "hash >= 0" true (Flow_key.hash k >= 0)
  done

let test_flow_key_hash_spread () =
  (* hash mod n should spread sequential flows roughly evenly: this is
     what the select-group load balancer relies on *)
  let n = 4 in
  let counts = Array.make n 0 in
  for i = 0 to 9999 do
    let k =
      Flow_key.make
        ~ip_src:(Ipv4_addr.of_int (0x0A000000 + i))
        ~ip_dst:(Ipv4_addr.make 10 0 0 200) ~proto:6 ~l4_src:1024 ~l4_dst:80 ()
    in
    let b = Flow_key.hash k mod n in
    counts.(b) <- counts.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 20% of fair share" true
        (abs (c - 2500) < 500))
    counts

let test_flow_key_to_string () =
  Alcotest.(check string) "format" "10.0.0.1:1234->10.0.0.2:80/6" (Flow_key.to_string key1)

(* ------------------------------------------------------------------ *)
(* Packet construction and encapsulation *)

(* Strip the outermost header; [None] when not encapsulated.  The
   one-step pop the encapsulation operations are specified by. *)
let pop_encap (p : Packet.t) =
  match p.Packet.encaps with [] -> None | e :: rest -> Some (e, { p with Packet.encaps = rest })

let mk_packet () =
  Packet.tcp_syn ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 10 0 0 1)
    ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port:1234 ~dst_port:80 ()

let test_packet_size () =
  let p = mk_packet () in
  (* eth 14 + ip 20 + tcp 20 *)
  Alcotest.(check int) "bare size" 54 (Packet.size p);
  let p = Packet.push_encap (Encap.mpls 5) p in
  Alcotest.(check int) "mpls adds 4" 58 (Packet.size p)

let test_packet_encap_stack () =
  let p = mk_packet () in
  Alcotest.(check bool) "not encapsulated" false (Packet.is_encapsulated p);
  Alcotest.check_raises "no label to read" Not_found (fun () ->
      ignore (Packet.outer_mpls_label p));
  let p = Packet.push_encap (Encap.mpls 7) p in
  let p = Packet.push_encap (Encap.mpls 42) p in
  Alcotest.(check int) "outer label" 42 (Packet.outer_mpls_label p);
  match pop_encap p with
  | Some (Encap.Mpls { label }, p') ->
    Alcotest.(check int) "popped outer" 42 label;
    Alcotest.(check int) "inner now outer" 7 (Packet.outer_mpls_label p')
  | _ -> Alcotest.fail "expected mpls pop"

let test_packet_flow_key_ignores_encaps () =
  let p = mk_packet () in
  let k1 = Packet.flow_key p in
  let p = Packet.push_encap (Encap.mpls 3) p in
  Alcotest.(check bool) "same key" true (Flow_key.equal k1 (Packet.flow_key p))

let test_mpls_label_range () =
  Alcotest.(check bool) "label out of range" true
    (try
       ignore (Encap.mpls 0x100000);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_plain_roundtrip () =
  let p = mk_packet () in
  let p' = Codec.parse ~flow_id:1 (Codec.serialize p) in
  Alcotest.(check bool) "eth src" true (Mac.equal p.Packet.eth.Ethernet.src p'.Packet.eth.Ethernet.src);
  Alcotest.(check bool) "eth dst" true (Mac.equal p.Packet.eth.Ethernet.dst p'.Packet.eth.Ethernet.dst);
  Alcotest.(check bool) "flow key" true (Flow_key.equal (Packet.flow_key p) (Packet.flow_key p'));
  Alcotest.(check int) "same size" (Packet.size p) (Packet.size p')

let test_codec_wire_length () =
  let p = mk_packet () in
  Alcotest.(check int) "wire bytes = model size" (Packet.size p)
    (Bytes.length (Codec.serialize p))

let test_codec_ip_checksum () =
  let p = mk_packet () in
  let b = Codec.serialize p in
  (* recompute the IPv4 header checksum: must be zero-sum *)
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := !sum + Bytes.get_uint16_be b (14 + (2 * i))
  done;
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  Alcotest.(check int) "ones-complement sum" 0xFFFF !sum

let test_codec_truncated () =
  let p = mk_packet () in
  let b = Codec.serialize p in
  Alcotest.(check bool) "truncation raises" true
    (try
       ignore (Codec.parse (Bytes.sub b 0 20));
       false
     with Codec.Parse_error _ -> true)

(* GRE (IP protocol 47) is not part of the model: parsing it fails *)
let test_codec_gre_rejected () =
  let p = { (mk_packet ()) with Packet.l4 = L4.Other Ipv4.proto_gre } in
  let p = { p with Packet.ip = { p.Packet.ip with Ipv4.proto = Ipv4.proto_gre } } in
  Alcotest.(check bool) "gre raises" true
    (try
       ignore (Codec.parse (Codec.serialize p));
       false
     with Codec.Parse_error _ -> true)

(* random valid packet generator: optional VLAN first, then MPLS *)
let packet_gen =
  let open QCheck.Gen in
  let addr = map Ipv4_addr.of_int (int_bound 0xFFFFFF) in
  let mac = map Mac.of_host_id (int_bound 0xFFFF) in
  let l4 =
    oneof
      [ map2 (fun s d -> L4.Tcp (Tcp.make ~src_port:s ~dst_port:d ())) (int_bound 65535)
          (int_bound 65535);
        map2 (fun s d -> L4.Udp (Udp.make ~src_port:s ~dst_port:d)) (int_bound 65535)
          (int_bound 65535) ]
  in
  let encaps = list_size (int_bound 3) (map Encap.mpls (int_bound 0xFFFFF)) in
  let vlan = opt (map (fun v -> Encap.vlan v) (int_bound 0xFFF)) in
  map2
    (fun (src_mac, dst_mac, ip_src, ip_dst) (l4, encaps, vlan, payload_len) ->
      let eth = Ethernet.make ~src:src_mac ~dst:dst_mac ~ethertype:Ethernet.ethertype_ipv4 in
      let ip = Ipv4.make ~src:ip_src ~dst:ip_dst
          ~proto:(match l4 with L4.Tcp _ -> 6 | L4.Udp _ -> 17 | L4.Other p -> p) () in
      let p = Packet.make ~payload_len ~flow_id:1 ~created:0.0 ~eth ~ip ~l4 () in
      let p = List.fold_left (fun p e -> Packet.push_encap e p) p (List.rev encaps) in
      match vlan with None -> p | Some v -> Packet.push_encap v p)
    (quad mac mac addr addr)
    (quad l4 encaps vlan (int_bound 64))

let packet_arb = QCheck.make ~print:(Format.asprintf "%a" Packet.pp) packet_gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trip preserves headers" ~count:300 packet_arb
    (fun p ->
      let p' = Codec.parse (Codec.serialize p) in
      Mac.equal p.Packet.eth.Ethernet.src p'.Packet.eth.Ethernet.src
      && Mac.equal p.Packet.eth.Ethernet.dst p'.Packet.eth.Ethernet.dst
      && p.Packet.encaps = p'.Packet.encaps
      && Flow_key.equal (Packet.flow_key p) (Packet.flow_key p')
      && p.Packet.payload_len = p'.Packet.payload_len
      && p.Packet.ip.Ipv4.ttl = p'.Packet.ip.Ipv4.ttl)

let prop_codec_size =
  QCheck.Test.make ~name:"serialized length >= model size" ~count:300 packet_arb
    (fun p -> Bytes.length (Codec.serialize p) >= Packet.size p)

(* ------------------------------------------------------------------ *)
(* The in-place encapsulation operations against their [pop_encap]
   definitions.  Stacks mix MPLS labels and VLAN tags in any order;
   labels come from a small range so a tunnel id often matches. *)

let mixed_packet_gen =
  let open QCheck.Gen in
  let encap = oneof [ map Encap.mpls (int_bound 3); map Encap.vlan (int_bound 3) ] in
  let l4 =
    oneof
      [ map2 (fun s d -> L4.Tcp (Tcp.make ~src_port:s ~dst_port:d ())) (int_bound 65535)
          (int_bound 65535);
        map2 (fun s d -> L4.Udp (Udp.make ~src_port:s ~dst_port:d)) (int_bound 65535)
          (int_bound 65535);
        map (fun p -> L4.Other p) (int_bound 255) ]
  in
  map3
    (fun (ip_src, ip_dst) (l4, encaps) (flow_id, created, seq_in_flow) ->
      let eth =
        Ethernet.make ~src:(Mac.of_host_id 1) ~dst:(Mac.of_host_id 2)
          ~ethertype:Ethernet.ethertype_ipv4
      in
      let ip = Ipv4.make ~src:ip_src ~dst:ip_dst ~proto:(L4.proto l4) () in
      let p = Packet.make ~payload_len:10 ~flow_id ~created ~eth ~ip ~l4 () in
      let p = { p with Packet.meta = { p.Packet.meta with Packet.seq_in_flow } } in
      List.fold_left (fun p e -> Packet.push_encap e p) p encaps)
    (let addr = map Ipv4_addr.of_int (int_bound 0xFFFFFFFF) in
     pair addr addr)
    (pair l4 (list_size (int_bound 3) encap))
    (triple small_nat (float_bound_inclusive 10.0) small_nat)

let mixed_packet_arb = QCheck.make ~print:(Format.asprintf "%a" Packet.pp) mixed_packet_gen

(* The result equals [expect], and is the argument itself when nothing
   was stripped: no copy is made for a no-op. *)
let same_or_self p ~expect got = got = expect && (expect != p || got == p)

let prop_flow_hash =
  QCheck.Test.make ~name:"flow_hash is the hash of the flow key" ~count:300 mixed_packet_arb
    (fun p -> Packet.flow_hash p = Flow_key.hash (Packet.flow_key p))

let prop_decap_pop_mpls =
  QCheck.Test.make ~name:"decap_tunnel and pop_mpls agree with pop_encap" ~count:300
    (QCheck.pair mixed_packet_arb (QCheck.int_bound 3))
    (fun (p, tunnel_id) ->
      let decap =
        match pop_encap p with
        | Some (Encap.Mpls { label }, p') when label = tunnel_id -> p'
        | _ -> p
      and pop = match pop_encap p with Some (Encap.Mpls _, p') -> p' | _ -> p in
      same_or_self p ~expect:decap (Packet.decap_tunnel ~tunnel_id p)
      && same_or_self p ~expect:pop (Packet.pop_mpls p))

let prop_strip =
  QCheck.Test.make ~name:"strip pops until nothing is left" ~count:300 mixed_packet_arb
    (fun p ->
      let rec strip p = match pop_encap p with None -> p | Some (_, p') -> strip p' in
      let expect = strip p in
      same_or_self p ~expect (Packet.strip p) && (Packet.strip p).Packet.encaps = [])

let prop_with_meta =
  QCheck.Test.make ~name:"with_meta changes only created and seq_in_flow" ~count:300
    (QCheck.triple mixed_packet_arb (QCheck.float_bound_inclusive 10.0) QCheck.small_nat)
    (fun (p, created, seq_in_flow) ->
      let q = Packet.with_meta p ~created ~seq_in_flow in
      q.Packet.meta.Packet.created = created
      && q.Packet.meta.Packet.seq_in_flow = seq_in_flow
      && q = { p with Packet.meta = { p.Packet.meta with Packet.created; seq_in_flow } }
      (* the headers are shared, not copied *)
      && q.Packet.eth == p.Packet.eth && q.Packet.ip == p.Packet.ip
      && q.Packet.l4 == p.Packet.l4 && q.Packet.encaps == p.Packet.encaps)

let () =
  Alcotest.run "scotch_packet"
    [ ( "mac",
        [ Alcotest.test_case "roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
          Alcotest.test_case "of_host_id" `Quick test_mac_of_host_id ] );
      ( "ipv4_addr",
        [ Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "prefix mask" `Quick test_ip_prefix_mask;
          Alcotest.test_case "matches" `Quick test_ip_matches;
          Alcotest.test_case "octet range" `Quick test_ip_octet_range ] );
      ( "flow_key",
        [ Alcotest.test_case "equality" `Quick test_flow_key_equal;
          Alcotest.test_case "hash non-negative" `Quick test_flow_key_hash_nonnegative;
          Alcotest.test_case "hash spread (LB fairness)" `Quick test_flow_key_hash_spread;
          Alcotest.test_case "to_string" `Quick test_flow_key_to_string ] );
      ( "packet",
        [ Alcotest.test_case "size arithmetic" `Quick test_packet_size;
          Alcotest.test_case "encap stack" `Quick test_packet_encap_stack;
          Alcotest.test_case "flow key ignores encaps" `Quick test_packet_flow_key_ignores_encaps;
          Alcotest.test_case "mpls label range" `Quick test_mpls_label_range;
          QCheck_alcotest.to_alcotest prop_flow_hash;
          QCheck_alcotest.to_alcotest prop_decap_pop_mpls;
          QCheck_alcotest.to_alcotest prop_strip;
          QCheck_alcotest.to_alcotest prop_with_meta ] );
      ( "codec",
        [ Alcotest.test_case "plain roundtrip" `Quick test_codec_plain_roundtrip;
          Alcotest.test_case "wire length" `Quick test_codec_wire_length;
          Alcotest.test_case "ip checksum" `Quick test_codec_ip_checksum;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated;
          Alcotest.test_case "gre rejected" `Quick test_codec_gre_rejected;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_size ] ) ]
