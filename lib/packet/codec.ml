(** Byte-level serialization of {!Packet.t} to real wire format and back.

    The simulator never serializes packets on its hot path, but the codec
    keeps the header model honest: property tests assert that
    [parse (serialize p)] reconstructs every header field, and the byte
    layouts follow the actual RFCs (Ethernet II, RFC 791 IPv4, RFC 793
    TCP, RFC 768 UDP, RFC 3032 MPLS).  Checksums are computed on write
    and ignored on read (the simulator does not corrupt bytes). *)

open Headers

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(** {1 Byte-buffer helpers} *)

let set_u8 b off v = Bytes.set_uint8 b off (v land 0xFF)
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u32 b off v =
  Bytes.set_int32_be b off (Int32.of_int (v land 0xFFFFFFFF))

let set_u48 b off v =
  set_u16 b off (v lsr 32);
  set_u32 b (off + 2) (v land 0xFFFFFFFF)

let get_u8 = Bytes.get_uint8
let get_u16 = Bytes.get_uint16_be
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

(** RFC 1071 Internet checksum over [len] bytes starting at [off]. *)
let internet_checksum b ~off ~len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + get_u16 b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (get_u8 b !i lsl 8);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(** {1 Serialization} *)

let write_ethernet b off (eth : Ethernet.t) ~ethertype =
  set_u48 b off (Mac.to_int eth.dst);
  set_u48 b (off + 6) (Mac.to_int eth.src);
  set_u16 b (off + 12) ethertype;
  off + 14

let write_mpls b off ~label ~bos =
  (* label:20 | tc:3 | s:1 | ttl:8 *)
  let word = (label lsl 12) lor ((if bos then 1 else 0) lsl 8) lor 64 in
  set_u32 b off word;
  off + 4

let write_vlan b off ~vid ~inner_ethertype =
  set_u16 b off vid;
  set_u16 b (off + 2) inner_ethertype;
  off + 4

let write_ipv4 b off (ip : Ipv4.t) ~total_len =
  set_u8 b off 0x45;
  set_u8 b (off + 1) (ip.dscp lsl 2);
  set_u16 b (off + 2) total_len;
  set_u16 b (off + 4) ip.ident;
  set_u16 b (off + 6) 0;
  set_u8 b (off + 8) ip.ttl;
  set_u8 b (off + 9) ip.proto;
  set_u16 b (off + 10) 0;
  set_u32 b (off + 12) (Ipv4_addr.to_int ip.src);
  set_u32 b (off + 16) (Ipv4_addr.to_int ip.dst);
  let csum = internet_checksum b ~off ~len:20 in
  set_u16 b (off + 10) csum;
  off + 20

let write_tcp b off (t : Tcp.t) =
  set_u16 b off t.src_port;
  set_u16 b (off + 2) t.dst_port;
  set_u32 b (off + 4) t.seq;
  set_u32 b (off + 8) t.ack_no;
  set_u8 b (off + 12) 0x50 (* data offset = 5 words *);
  set_u8 b (off + 13) (Tcp.flags_to_int t.flags);
  set_u16 b (off + 14) t.window;
  set_u16 b (off + 16) 0 (* checksum: unused in simulation *);
  set_u16 b (off + 18) 0;
  off + 20

let write_udp b off (u : Udp.t) ~payload_len =
  set_u16 b off u.src_port;
  set_u16 b (off + 2) u.dst_port;
  set_u16 b (off + 4) (8 + payload_len);
  set_u16 b (off + 6) 0;
  off + 8

(** Ethertype that must appear before a given encap/IP continuation. *)
let ethertype_for_next ~encaps =
  match encaps with
  | Encap.Mpls _ :: _ -> Ethernet.ethertype_mpls
  | Encap.Vlan _ :: _ -> Ethernet.ethertype_vlan
  | [] -> Ethernet.ethertype_ipv4

let inner_ip_bytes (p : Packet.t) = Ipv4.header_bytes + L4.header_bytes p.l4 + p.payload_len

(** [serialize p] renders [p] as wire bytes.  MPLS labels stack
    directly under Ethernet, VLAN tags rewrite the Ethernet type chain. *)
let serialize (p : Packet.t) =
  let inner_ip_len = inner_ip_bytes p in
  let total = Packet.size p in
  let b = Bytes.make total '\000' in
  let first_ethertype =
    match p.encaps with
    | [] -> Ethernet.ethertype_ipv4
    | e :: _ -> ethertype_for_next ~encaps:[ e ]
  in
  let off = write_ethernet b 0 p.eth ~ethertype:first_ethertype in
  (* Remaining length under a given encap position *)
  let rec write_encaps off = function
    | [] ->
      let off = write_ipv4 b off p.ip ~total_len:inner_ip_len in
      let off =
        match p.l4 with
        | L4.Tcp t -> write_tcp b off t
        | L4.Udp u -> write_udp b off u ~payload_len:p.payload_len
        | L4.Other _ -> off
      in
      (* payload bytes remain zero; the headers fill the rest exactly *)
      assert (off + p.payload_len = total)
    | Encap.Mpls { label } :: rest ->
      let bos = match rest with Encap.Mpls _ :: _ -> false | _ -> true in
      let off = write_mpls b off ~label ~bos in
      write_encaps off rest
    | Encap.Vlan { vid } :: rest ->
      let off = write_vlan b off ~vid ~inner_ethertype:(ethertype_for_next ~encaps:rest) in
      write_encaps off rest
  in
  write_encaps off p.encaps;
  b

(** {1 Parsing} *)

let parse_tcp b off =
  if Bytes.length b < off + 20 then fail "truncated TCP header";
  L4.Tcp
    { Tcp.src_port = get_u16 b off;
      dst_port = get_u16 b (off + 2);
      seq = get_u32 b (off + 4);
      ack_no = get_u32 b (off + 8);
      flags = Tcp.flags_of_int (get_u8 b (off + 13));
      window = get_u16 b (off + 14) }

let parse_udp b off =
  if Bytes.length b < off + 8 then fail "truncated UDP header";
  L4.Udp { Udp.src_port = get_u16 b off; dst_port = get_u16 b (off + 2) }

let parse_ipv4 b off =
  if Bytes.length b < off + 20 then fail "truncated IPv4 header";
  let vihl = get_u8 b off in
  if vihl lsr 4 <> 4 then fail "not IPv4";
  let ihl = (vihl land 0xF) * 4 in
  let ip =
    Ipv4.make
      ~dscp:(get_u8 b (off + 1) lsr 2)
      ~ident:(get_u16 b (off + 4))
      ~ttl:(get_u8 b (off + 8))
      ~src:(Ipv4_addr.of_int (get_u32 b (off + 12)))
      ~dst:(Ipv4_addr.of_int (get_u32 b (off + 16)))
      ~proto:(get_u8 b (off + 9))
      ()
  in
  (ip, off + ihl, get_u16 b (off + 2))

(** [parse ~flow_id b] reconstructs a {!Packet.t} from wire bytes,
    assigning fresh simulation metadata (created at time 0). *)
let parse ?(flow_id = 0) b =
  if Bytes.length b < 14 then fail "truncated Ethernet header";
  let eth_dst = Mac.of_int (get_u48 b 0) in
  let eth_src = Mac.of_int (get_u48 b 6) in
  let rec go off ethertype encaps =
    if ethertype = Ethernet.ethertype_vlan then begin
      if Bytes.length b < off + 4 then fail "truncated VLAN tag";
      let vid = get_u16 b off land 0xFFF in
      go (off + 4) (get_u16 b (off + 2)) (Encap.vlan vid :: encaps)
    end
    else if ethertype = Ethernet.ethertype_mpls then begin
      if Bytes.length b < off + 4 then fail "truncated MPLS header";
      let word = get_u32 b off in
      let label = word lsr 12 in
      let bos = (word lsr 8) land 1 = 1 in
      let enc = Encap.Mpls { label } :: encaps in
      (* After bottom-of-stack the payload is IPv4 in our model. *)
      if bos then ip_layer (off + 4) enc else go (off + 4) Ethernet.ethertype_mpls enc
    end
    else if ethertype = Ethernet.ethertype_ipv4 then ip_layer off encaps
    else fail "unsupported ethertype 0x%04x" ethertype
  and ip_layer off encaps =
    let ip, off, _total = parse_ipv4 b off in
    if ip.Ipv4.proto = Ipv4.proto_gre then fail "GRE encapsulation unsupported"
    else begin
      let l4, l4_len =
        if ip.Ipv4.proto = Ipv4.proto_tcp then (parse_tcp b off, Tcp.header_bytes)
        else if ip.Ipv4.proto = Ipv4.proto_udp then (parse_udp b off, Udp.header_bytes)
        else (L4.Other ip.Ipv4.proto, 0)
      in
      let payload_len = Bytes.length b - off - l4_len in
      if payload_len < 0 then fail "inconsistent lengths";
      let eth = Ethernet.make ~src:eth_src ~dst:eth_dst ~ethertype:Ethernet.ethertype_ipv4 in
      { Packet.eth;
        encaps = List.rev encaps;
        ip;
        l4;
        payload_len;
        meta = Packet.fresh_meta ~flow_id ~created:0.0 () }
    end
  in
  go 14 (get_u16 b 12) []
