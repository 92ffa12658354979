(** Binary wire codec for the OpenFlow message subset.

    Framing follows OpenFlow 1.3: an 8-byte header (version 0x04, type,
    length, xid) followed by a type-specific body.  Matches are encoded
    as OXM-style TLVs and actions as TLVs.  Where our model diverges
    from the spec (e.g. composite [Push_mpls label], float timeouts in
    milliseconds, packet payloads via {!Scotch_packet.Codec}), the
    encoding is self-consistent: the properties guaranteed (and tested)
    are [Bytes.length (encode m) = size m], and [decode (encode m) = m]
    while [size m] fits the u16 length field. *)

open Of_types

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* The {!Of_types} converters raise [Invalid_argument] on a code with
   no meaning; on the wire that is a malformed message. *)
let checked what of_int v = try of_int v with Invalid_argument _ -> fail "bad %s %d" what v

let version = 0x04

(** {1 Writer} *)

module W = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xFF)
  let u16 b v = Buffer.add_uint16_be b (v land 0xFFFF)
  let u32 b v = Buffer.add_int32_be b (Int32.of_int (v land 0xFFFFFFFF))
  let u64 b v = Buffer.add_int64_be b (Int64.of_int v)

  let bytes b s =
    u32 b (Bytes.length s);
    Buffer.add_bytes b s
end

(** {1 Reader} *)

module R = struct
  type t = { data : Bytes.t; mutable off : int }

  let create data = { data; off = 0 }

  let need r n = if r.off + n > Bytes.length r.data then fail "truncated message"

  let u8 r = need r 1; let v = Bytes.get_uint8 r.data r.off in r.off <- r.off + 1; v
  let u16 r = need r 2; let v = Bytes.get_uint16_be r.data r.off in r.off <- r.off + 2; v

  let u32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_be r.data r.off) land 0xFFFFFFFF in
    r.off <- r.off + 4;
    v

  let u64 r = need r 8; let v = Int64.to_int (Bytes.get_int64_be r.data r.off) in r.off <- r.off + 8; v

  let bytes r =
    let n = u32 r in
    need r n;
    let s = Bytes.sub r.data r.off n in
    r.off <- r.off + n;
    s
end

(** {1 Match encoding (OXM-style TLVs)}

    Each present field is one TLV: [field_id:u8, has_mask:u8, payload].
    A count prefix avoids sentinel values. *)

let field_in_port = 1
let field_eth_type = 2
let field_ip_src = 3
let field_ip_dst = 4
let field_ip_proto = 5
let field_l4_src = 6
let field_l4_dst = 7
let field_mpls = 8
let field_tunnel = 10

let encode_match b (m : Of_match.t) =
  let count =
    List.length
      (List.filter Fun.id
         [ m.in_port <> None; m.eth_type <> None; m.ip_src <> None; m.ip_dst <> None;
           m.ip_proto <> None; m.l4_src <> None; m.l4_dst <> None; m.mpls_label <> None;
           m.tunnel_id <> None ])
  in
  W.u8 b count;
  let simple id v = W.u8 b id; W.u8 b 0; W.u32 b v in
  let masked id (mk : Of_match.masked) =
    W.u8 b id; W.u8 b 1; W.u32 b mk.Of_match.value; W.u32 b mk.Of_match.mask
  in
  Option.iter (simple field_in_port) m.in_port;
  Option.iter (simple field_eth_type) m.eth_type;
  Option.iter (masked field_ip_src) m.ip_src;
  Option.iter (masked field_ip_dst) m.ip_dst;
  Option.iter (simple field_ip_proto) m.ip_proto;
  Option.iter (simple field_l4_src) m.l4_src;
  Option.iter (simple field_l4_dst) m.l4_dst;
  Option.iter (simple field_mpls) m.mpls_label;
  Option.iter (simple field_tunnel) m.tunnel_id

let decode_match r : Of_match.t =
  let count = R.u8 r in
  let m = ref Of_match.wildcard in
  for _ = 1 to count do
    let id = R.u8 r in
    let has_mask = R.u8 r = 1 in
    let v = R.u32 r in
    let mask = if has_mask then R.u32 r else Scotch_packet.Ipv4_addr.mask32 in
    m :=
      (match id with
      | x when x = field_in_port -> Of_match.with_in_port v !m
      | x when x = field_eth_type -> Of_match.with_eth_type v !m
      | x when x = field_ip_src -> Of_match.with_ip_src ~mask (Scotch_packet.Ipv4_addr.of_int v) !m
      | x when x = field_ip_dst -> Of_match.with_ip_dst ~mask (Scotch_packet.Ipv4_addr.of_int v) !m
      | x when x = field_ip_proto -> Of_match.with_ip_proto v !m
      | x when x = field_l4_src -> Of_match.with_l4_src v !m
      | x when x = field_l4_dst -> Of_match.with_l4_dst v !m
      | x when x = field_mpls -> Of_match.with_mpls_label v !m
      | x when x = field_tunnel -> Of_match.with_tunnel_id v !m
      | x -> fail "unknown match field %d" x)
  done;
  !m

(** {1 Action encoding} *)

let act_output = 0
let act_group = 1
let act_push_mpls = 2
let act_pop_mpls = 3

let encode_action b (a : Of_action.t) =
  match a with
  | Of_action.Output p -> W.u8 b act_output; W.u32 b (Port_no.to_int p)
  | Group g -> W.u8 b act_group; W.u32 b g
  | Push_mpls l -> W.u8 b act_push_mpls; W.u32 b l
  | Pop_mpls -> W.u8 b act_pop_mpls

let decode_action r : Of_action.t =
  match R.u8 r with
  | x when x = act_output -> Output (checked "port" Port_no.of_int (R.u32 r))
  | x when x = act_group -> Group (R.u32 r)
  | x when x = act_push_mpls -> Push_mpls (R.u32 r)
  | x when x = act_pop_mpls -> Pop_mpls
  | x -> fail "unknown action %d" x

let encode_actions b acts =
  W.u16 b (List.length acts);
  List.iter (encode_action b) acts

let decode_actions r =
  let n = R.u16 r in
  List.init n (fun _ -> decode_action r)

let encode_instructions b instrs =
  W.u16 b (List.length instrs);
  List.iter
    (function
      | Of_action.Apply_actions acts -> W.u8 b 0; encode_actions b acts
      | Of_action.Goto_table t -> W.u8 b 1; W.u8 b t)
    instrs

let decode_instructions r =
  let n = R.u16 r in
  List.init n (fun _ ->
      match R.u8 r with
      | 0 -> Of_action.Apply_actions (decode_actions r)
      | 1 -> Of_action.Goto_table (R.u8 r)
      | x -> fail "unknown instruction %d" x)

(** {1 Timeouts}: stored as milliseconds in u32 (floats in the model). *)

let encode_timeout b t = W.u32 b (int_of_float (t *. 1000.0 +. 0.5))
let decode_timeout r = float_of_int (R.u32 r) /. 1000.0

(** {1 Packets}: via the packet codec, with metadata carried alongside
    (simulation-only fields that real wires would not have). *)

let encode_packet b (p : Scotch_packet.Packet.t) =
  W.u32 b p.Scotch_packet.Packet.meta.flow_id;
  W.bytes b (Scotch_packet.Codec.serialize p)

let decode_packet r =
  let flow_id = R.u32 r in
  let data = R.bytes r in
  try Scotch_packet.Codec.parse ~flow_id data
  with Scotch_packet.Codec.Parse_error e -> fail "packet: %s" e

(** {1 Message type codes (OpenFlow 1.3 numbering where applicable)} *)

let t_error = 1
let t_echo_request = 2
let t_echo_reply = 3
let t_packet_in = 10
let t_flow_mod = 14
let t_group_mod = 15
let t_packet_out = 13
let t_multipart_request = 18
let t_multipart_reply = 19
let t_barrier_request = 20
let t_barrier_reply = 21

(* multipart subtypes *)
let mp_flow = 1
let mp_group_desc = 7
let mp_telemetry = 8 (* experimenter-style: the sampled-telemetry digest *)

let encode_flow_mod b (fm : Of_msg.Flow_mod.t) =
  W.u8 b (match fm.command with Add -> 0 | Delete -> 3);
  W.u8 b fm.table_id;
  W.u16 b fm.priority;
  W.u64 b (Int64.to_int fm.cookie);
  encode_timeout b fm.idle_timeout;
  encode_timeout b fm.hard_timeout;
  encode_match b fm.match_;
  encode_instructions b fm.instructions

let decode_flow_mod r : Of_msg.Flow_mod.t =
  let command =
    match R.u8 r with
    | 0 -> Of_msg.Flow_mod.Add
    | 3 -> Of_msg.Flow_mod.Delete
    | x -> fail "unknown flow_mod command %d" x
  in
  let table_id = R.u8 r in
  let priority = R.u16 r in
  let cookie = Int64.of_int (R.u64 r) in
  let idle_timeout = decode_timeout r in
  let hard_timeout = decode_timeout r in
  let match_ = decode_match r in
  let instructions = decode_instructions r in
  { command; table_id; priority; cookie; idle_timeout; hard_timeout; match_; instructions }

(* Every group is a select group; the OpenFlow group-type byte stays on
   the wire (select = 1), and any other type is malformed. *)
let group_type_select = 1

let encode_group_type b = W.u8 b group_type_select

let decode_group_type r =
  match R.u8 r with
  | x when x = group_type_select -> ()
  | x -> fail "unsupported group type %d" x

(* Every bucket weighs the same (§5.1 spreads flows evenly by hash);
   the per-bucket weight stays on the wire as 1, and any other weight
   is malformed. *)
let encode_buckets b buckets =
  W.u16 b (List.length buckets);
  List.iter
    (fun (bk : Of_msg.Group_mod.bucket) ->
      W.u16 b 1;
      encode_actions b bk.actions)
    buckets

let decode_buckets r =
  List.init (R.u16 r) (fun _ ->
      (match R.u16 r with 1 -> () | w -> fail "unsupported bucket weight %d" w);
      { Of_msg.Group_mod.actions = decode_actions r })

let encode_group_mod b (gm : Of_msg.Group_mod.t) =
  W.u8 b (match gm.command with Add -> 0 | Modify -> 1 | Delete -> 2);
  encode_group_type b;
  W.u32 b gm.group_id;
  encode_buckets b gm.buckets

let decode_group_mod r : Of_msg.Group_mod.t =
  let command =
    match R.u8 r with
    | 0 -> Of_msg.Group_mod.Add
    | 1 -> Of_msg.Group_mod.Modify
    | 2 -> Of_msg.Group_mod.Delete
    | x -> fail "unknown group_mod command %d" x
  in
  decode_group_type r;
  let group_id = R.u32 r in
  let buckets = decode_buckets r in
  { command; group_id; buckets }

let encode_packet_in b (pi : Of_msg.Packet_in.t) =
  W.u32 b pi.buffer_id;
  W.u8 b (Packet_in_reason.to_int pi.reason);
  W.u8 b pi.table_id;
  W.u32 b pi.in_port;
  (match pi.tunnel_id with
  | None -> W.u8 b 0
  | Some id -> W.u8 b 1; W.u32 b id);
  encode_packet b pi.packet

let decode_packet_in r : Of_msg.Packet_in.t =
  let buffer_id = R.u32 r in
  let reason = checked "packet-in reason" Packet_in_reason.of_int (R.u8 r) in
  let table_id = R.u8 r in
  let in_port = R.u32 r in
  let tunnel_id = if R.u8 r = 1 then Some (R.u32 r) else None in
  let packet = decode_packet r in
  { buffer_id; reason; table_id; in_port; tunnel_id; packet }

let encode_packet_out b (po : Of_msg.Packet_out.t) =
  W.u32 b po.in_port;
  encode_actions b po.actions;
  encode_packet b po.packet

let decode_packet_out r : Of_msg.Packet_out.t =
  let in_port = R.u32 r in
  let actions = decode_actions r in
  let packet = decode_packet r in
  { in_port; actions; packet }

let encode_flow_stat b (fs : Of_msg.Stats.flow_stat) =
  W.u8 b fs.table_id;
  W.u16 b fs.priority;
  W.u64 b fs.packet_count;
  W.u64 b fs.byte_count;
  W.u64 b (Int64.to_int fs.cookie);
  W.u32 b (int_of_float (fs.duration *. 1000.0 +. 0.5));
  encode_match b fs.match_

let decode_flow_stat r : Of_msg.Stats.flow_stat =
  let table_id = R.u8 r in
  let priority = R.u16 r in
  let packet_count = R.u64 r in
  let byte_count = R.u64 r in
  let cookie = Int64.of_int (R.u64 r) in
  let duration = float_of_int (R.u32 r) /. 1000.0 in
  let match_ = decode_match r in
  { table_id; priority; packet_count; byte_count; cookie; duration; match_ }

(* Telemetry floats (sampling rate, window seconds) travel as IEEE-754
   bit patterns: exact round-trip, unlike the millisecond timeouts. *)
let encode_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let decode_f64 (r : R.t) =
  R.need r 8;
  let v = Int64.float_of_bits (Bytes.get_int64_be r.R.data r.R.off) in
  r.R.off <- r.R.off + 8;
  v

let encode_telemetry_report b (tr : Of_msg.Telemetry.report) =
  encode_f64 b tr.rate;
  encode_f64 b tr.window;
  W.u32 b tr.seen;
  W.u32 b tr.sampled;
  W.u16 b (List.length tr.records);
  List.iter
    (fun (rec_ : Of_msg.Telemetry.record) ->
      let k = rec_.Of_msg.Telemetry.key in
      W.u32 b (Scotch_packet.Ipv4_addr.to_int k.Scotch_packet.Flow_key.ip_src);
      W.u32 b (Scotch_packet.Ipv4_addr.to_int k.Scotch_packet.Flow_key.ip_dst);
      W.u8 b k.Scotch_packet.Flow_key.proto;
      W.u16 b k.Scotch_packet.Flow_key.l4_src;
      W.u16 b k.Scotch_packet.Flow_key.l4_dst;
      W.u32 b rec_.Of_msg.Telemetry.sampled)
    tr.records

let decode_telemetry_report r : Of_msg.Telemetry.report =
  let rate = decode_f64 r in
  let window = decode_f64 r in
  let seen = R.u32 r in
  let sampled = R.u32 r in
  let n = R.u16 r in
  let records =
    List.init n (fun _ ->
        let ip_src = Scotch_packet.Ipv4_addr.of_int (R.u32 r) in
        let ip_dst = Scotch_packet.Ipv4_addr.of_int (R.u32 r) in
        let proto = R.u8 r in
        let l4_src = R.u16 r in
        let l4_dst = R.u16 r in
        let count = R.u32 r in
        { Of_msg.Telemetry.key =
            Scotch_packet.Flow_key.make ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ();
          sampled = count })
  in
  { rate; window; seen; sampled; records }

let encode_group_desc b (gd : Of_msg.Stats.group_desc) =
  W.u32 b gd.group_id;
  encode_group_type b;
  encode_buckets b gd.buckets

let decode_group_desc r : Of_msg.Stats.group_desc =
  let group_id = R.u32 r in
  decode_group_type r;
  let buckets = decode_buckets r in
  { group_id; buckets }

(** {1 Top level} *)

let type_code (p : Of_msg.payload) =
  match p with
  | Error _ -> t_error
  | Echo_request -> t_echo_request
  | Echo_reply -> t_echo_reply
  | Packet_in _ -> t_packet_in
  | Packet_out _ -> t_packet_out
  | Flow_mod _ -> t_flow_mod
  | Group_mod _ -> t_group_mod
  | Flow_stats_request _ | Group_stats_request | Telemetry_request -> t_multipart_request
  | Flow_stats_reply _ | Group_stats_reply _ | Telemetry_reply _ -> t_multipart_reply
  | Barrier_request -> t_barrier_request
  | Barrier_reply -> t_barrier_reply

(** {1 Sizes}: the byte count of each writer above, by arithmetic.
    [size] must agree with [encode]; [encode] asserts that it does. *)

let field_size = function None -> 0 | Some _ -> 6
let masked_size = function None -> 0 | Some _ -> 10

let match_size (m : Of_match.t) =
  1 + field_size m.in_port + field_size m.eth_type + masked_size m.ip_src
  + masked_size m.ip_dst + field_size m.ip_proto + field_size m.l4_src + field_size m.l4_dst
  + field_size m.mpls_label + field_size m.tunnel_id

let action_size : Of_action.t -> int = function
  | Output _ | Group _ | Push_mpls _ -> 5
  | Pop_mpls -> 1

let actions_size acts = List.fold_left (fun n a -> n + action_size a) 2 acts

let instructions_size instrs =
  List.fold_left
    (fun n -> function
      | Of_action.Apply_actions acts -> n + 1 + actions_size acts
      | Of_action.Goto_table _ -> n + 2)
    2 instrs

let buckets_size buckets =
  List.fold_left
    (fun n (bk : Of_msg.Group_mod.bucket) -> n + 2 + actions_size bk.actions)
    2 buckets

let packet_size p = 8 + Scotch_packet.Packet.size p
let flow_stat_size (fs : Of_msg.Stats.flow_stat) = 31 + match_size fs.match_
let telemetry_report_size (tr : Of_msg.Telemetry.report) = 26 + (17 * List.length tr.records)

let body_size (p : Of_msg.payload) =
  match p with
  | Echo_request | Echo_reply | Barrier_request | Barrier_reply -> 0
  | Error s -> 4 + String.length s
  | Flow_mod fm -> 20 + match_size fm.match_ + instructions_size fm.instructions
  | Group_mod gm -> 6 + buckets_size gm.buckets
  | Packet_in pi ->
    (match pi.tunnel_id with None -> 11 | Some _ -> 15) + packet_size pi.packet
  | Packet_out po -> 4 + actions_size po.actions + packet_size po.packet
  | Flow_stats_request fsr -> 3 + match_size fsr.match_
  | Flow_stats_reply stats -> List.fold_left (fun n fs -> n + flow_stat_size fs) 4 stats
    (* [flow_stats_reply_framing] counts this 4 and the header's 8 *)
  | Group_stats_request | Telemetry_request -> 2
  | Group_stats_reply descs ->
    List.fold_left
      (fun n (gd : Of_msg.Stats.group_desc) -> n + 5 + buckets_size gd.buckets)
      4 descs
  | Telemetry_reply tr -> 2 + telemetry_report_size tr

let size (msg : Of_msg.t) = 8 + body_size msg.payload

let flow_stats_reply_framing = 8 + 4

(** [encode msg] renders a framed message: header (version, type,
    length, xid) then body, into one buffer of exactly [size msg]
    bytes. *)
let encode (msg : Of_msg.t) =
  let n = size msg in
  let b = Buffer.create n in
  W.u8 b version;
  W.u8 b (type_code msg.payload);
  W.u16 b n;
  W.u32 b msg.xid;
  (match msg.payload with
  | Echo_request | Echo_reply | Barrier_request | Barrier_reply -> ()
  | Error s -> W.bytes b (Bytes.of_string s)
  | Flow_mod fm -> encode_flow_mod b fm
  | Group_mod gm -> encode_group_mod b gm
  | Packet_in pi -> encode_packet_in b pi
  | Packet_out po -> encode_packet_out b po
  | Flow_stats_request fsr ->
    W.u16 b mp_flow;
    W.u8 b fsr.table_id;
    encode_match b fsr.match_
  | Flow_stats_reply stats ->
    W.u16 b mp_flow;
    W.u16 b (List.length stats);
    List.iter (encode_flow_stat b) stats
  | Group_stats_request -> W.u16 b mp_group_desc
  | Group_stats_reply descs ->
    W.u16 b mp_group_desc;
    W.u16 b (List.length descs);
    List.iter (encode_group_desc b) descs
  | Telemetry_request -> W.u16 b mp_telemetry
  | Telemetry_reply tr ->
    W.u16 b mp_telemetry;
    encode_telemetry_report b tr);
  assert (Buffer.length b = n);
  Buffer.to_bytes b

(** [decode data] parses one framed message.  Raises {!Parse_error} on
    malformed input. *)
let decode data : Of_msg.t =
  let r = R.create data in
  let v = R.u8 r in
  if v <> version then fail "unsupported OpenFlow version 0x%02x" v;
  let ty = R.u8 r in
  let len = R.u16 r in
  if len <> Bytes.length data then fail "length field %d != buffer %d" len (Bytes.length data);
  let xid = R.u32 r in
  let payload : Of_msg.payload =
    if ty = t_error then Error (Bytes.to_string (R.bytes r))
    else if ty = t_echo_request then Echo_request
    else if ty = t_echo_reply then Echo_reply
    else if ty = t_barrier_request then Barrier_request
    else if ty = t_barrier_reply then Barrier_reply
    else if ty = t_flow_mod then Flow_mod (decode_flow_mod r)
    else if ty = t_group_mod then Group_mod (decode_group_mod r)
    else if ty = t_packet_in then Packet_in (decode_packet_in r)
    else if ty = t_packet_out then Packet_out (decode_packet_out r)
    else if ty = t_multipart_request then begin
      match R.u16 r with
      | x when x = mp_flow ->
        let table_id = R.u8 r in
        let match_ = decode_match r in
        Flow_stats_request { table_id; match_ }
      | x when x = mp_group_desc -> Group_stats_request
      | x when x = mp_telemetry -> Telemetry_request
      | x -> fail "unknown multipart request subtype %d" x
    end
    else if ty = t_multipart_reply then begin
      match R.u16 r with
      | x when x = mp_flow ->
        let n = R.u16 r in
        Flow_stats_reply (List.init n (fun _ -> decode_flow_stat r))
      | x when x = mp_group_desc ->
        let n = R.u16 r in
        Group_stats_reply (List.init n (fun _ -> decode_group_desc r))
      | x when x = mp_telemetry -> Telemetry_reply (decode_telemetry_report r)
      | x -> fail "unknown multipart reply subtype %d" x
    end
    else fail "unknown message type %d" ty
  in
  { xid; payload }
