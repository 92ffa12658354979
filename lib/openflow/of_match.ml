(** OpenFlow match structure (OXM-style, with per-field presence and
    masks where OpenFlow 1.3 allows them), and evaluation against a
    packet lookup context. *)

open Scotch_packet

(** The fields a switch extracts from a packet before table lookup.
    [tunnel_id] is the logical tunnel the packet arrived on (set by the
    datapath for packets entering via a tunnel port), mirroring
    OXM_OF_TUNNEL_ID. *)
type context = {
  in_port : int;
  tunnel_id : int option;
  packet : Packet.t;
}

let context ?tunnel_id ~in_port packet = { in_port; tunnel_id; packet }

(** A masked 32-bit IP prefix match.  [value] keeps only the bits
    inside [mask] (the builders and {!canonical} clear the rest), so two
    matches that differ only in masked-out bits are one match. *)
type masked = { value : int; mask : int }

type t = {
  in_port : int option;
  eth_type : int option;
  ip_src : masked option;
  ip_dst : masked option;
  ip_proto : int option;
  l4_src : int option;
  l4_dst : int option;
  mpls_label : int option;  (* outermost label *)
  tunnel_id : int option;
}

(** The all-wildcard match: matches every packet.  Used (at priority 0)
    for table-miss rules — Scotch's overlay redirection replaces exactly
    this rule (§4: "the default rule at the switch is modified"). *)
let wildcard =
  { in_port = None; eth_type = None; ip_src = None; ip_dst = None; ip_proto = None;
    l4_src = None; l4_dst = None; mpls_label = None; tunnel_id = None }

let with_in_port p (t : t) = { t with in_port = Some p }
let with_eth_type et t = { t with eth_type = Some et }

let with_ip_src ?(mask = Ipv4_addr.mask32) addr t =
  { t with ip_src = Some { value = Ipv4_addr.to_int addr land mask; mask } }

let with_ip_dst ?(mask = Ipv4_addr.mask32) addr t =
  { t with ip_dst = Some { value = Ipv4_addr.to_int addr land mask; mask } }

let with_ip_proto p t = { t with ip_proto = Some p }
let with_l4_src p t = { t with l4_src = Some p }
let with_l4_dst p t = { t with l4_dst = Some p }
let with_mpls_label l t = { t with mpls_label = Some l }
let with_tunnel_id id (t : t) = { t with tunnel_id = Some id }

(** [exact_flow key] matches exactly the 5-tuple [key] — the per-flow
    rule shape the reactive controller installs.  One record literal:
    what [wildcard |> with_ip_src … |> with_l4_dst …] builds, without
    the four intermediate copies. *)
let exact_flow (key : Flow_key.t) =
  let ip (a : Ipv4_addr.t) =
    Some { value = Ipv4_addr.to_int a land Ipv4_addr.mask32; mask = Ipv4_addr.mask32 }
  in
  { in_port = None; eth_type = None; ip_src = ip key.Flow_key.ip_src;
    ip_dst = ip key.Flow_key.ip_dst; ip_proto = Some key.Flow_key.proto;
    l4_src = Some key.Flow_key.l4_src; l4_dst = Some key.Flow_key.l4_dst; mpls_label = None;
    tunnel_id = None }

(** [flow_key m] is the 5-tuple [m] pins when it pins the protocol and
    both IPs at /32, a port it leaves unpinned reading 0; the inverse of
    {!exact_flow}. *)
let flow_key (m : t) =
  match (m.ip_src, m.ip_dst, m.ip_proto) with
  | Some s, Some d, Some proto when s.mask = Ipv4_addr.mask32 && d.mask = Ipv4_addr.mask32 ->
    Some
      (Flow_key.make ~ip_src:(Ipv4_addr.of_int s.value) ~ip_dst:(Ipv4_addr.of_int d.value) ~proto
         ?l4_src:m.l4_src ?l4_dst:m.l4_dst ())
  | _ -> None

let canonical_ip = function
  | Some { value; mask } when value land mask <> value -> Some { value = value land mask; mask }
  | ip -> ip

(** [canonical t] clears the IP value bits outside each mask; [t]
    itself when there are none. *)
let canonical (t : t) =
  let ip_src = canonical_ip t.ip_src and ip_dst = canonical_ip t.ip_dst in
  if ip_src == t.ip_src && ip_dst == t.ip_dst then t else { t with ip_src; ip_dst }

let check opt ~actual ~equal = match opt with None -> true | Some v -> equal v actual

(** [matches t ctx] evaluates the match against a lookup context.  All
    present fields must agree; IP fields compare the {e inner} packet
    (the pipeline pops encapsulations before re-matching, as real
    switches re-run the pipeline after a pop). *)
let matches (t : t) (ctx : context) =
  let p = ctx.packet in
  let key = Packet.flow_key p in
  check t.in_port ~actual:ctx.in_port ~equal:Int.equal
  && check t.eth_type ~actual:p.Packet.eth.Headers.Ethernet.ethertype ~equal:Int.equal
  && (match t.ip_src with
     | None -> true
     | Some { value; mask } ->
       Ipv4_addr.matches ~addr:key.Flow_key.ip_src ~value ~mask)
  && (match t.ip_dst with
     | None -> true
     | Some { value; mask } ->
       Ipv4_addr.matches ~addr:key.Flow_key.ip_dst ~value ~mask)
  && check t.ip_proto ~actual:key.Flow_key.proto ~equal:Int.equal
  && check t.l4_src ~actual:key.Flow_key.l4_src ~equal:Int.equal
  && check t.l4_dst ~actual:key.Flow_key.l4_dst ~equal:Int.equal
  && (match t.mpls_label with
     | None -> true
     | Some l -> (
       match Packet.outer_mpls_label p with
       | outer -> Int.equal outer l
       | exception Not_found -> false))
  && match t.tunnel_id with None -> true | Some id -> ctx.tunnel_id = Some id

(** Number of specified fields — a crude specificity measure used in
    tests and for display. *)
let specificity (t : t) =
  let b = function None -> 0 | Some _ -> 1 in
  b t.in_port + b t.eth_type + b t.ip_src + b t.ip_dst + b t.ip_proto + b t.l4_src
  + b t.l4_dst + b t.mpls_label + b t.tunnel_id

let is_wildcard t = specificity t = 0

let equal (a : t) (b : t) = a = b

(* Does [hi] leave the field free, or pin it to [lo]'s value? *)
let covers_field hi lo =
  match (hi, lo) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> a = b

(* OpenFlow multipart flow-stats filtering: a rule is selected when
   every field the request specifies is present in the rule's match
   with the same value (the rule may be strictly more specific).  The
   wildcard request selects everything. *)
let selects (filter : t) (m : t) =
  covers_field filter.in_port m.in_port
  && covers_field filter.eth_type m.eth_type
  && covers_field filter.ip_src m.ip_src
  && covers_field filter.ip_dst m.ip_dst
  && covers_field filter.ip_proto m.ip_proto
  && covers_field filter.l4_src m.l4_src
  && covers_field filter.l4_dst m.l4_dst
  && covers_field filter.mpls_label m.mpls_label
  && covers_field filter.tunnel_id m.tunnel_id

let covers_ip hi lo =
  match (hi, lo) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> a.mask land b.mask = a.mask && a.value land a.mask = b.value land a.mask

(** [covers hi lo]: every packet matching [lo] also matches [hi] —
    each constraint of [hi] is implied by [lo]'s constraints. *)
let covers (hi : t) (lo : t) =
  covers_field hi.in_port lo.in_port
  && covers_field hi.eth_type lo.eth_type
  && covers_ip hi.ip_src lo.ip_src
  && covers_ip hi.ip_dst lo.ip_dst
  && covers_field hi.ip_proto lo.ip_proto
  && covers_field hi.l4_src lo.l4_src
  && covers_field hi.l4_dst lo.l4_dst
  && covers_field hi.mpls_label lo.mpls_label
  && covers_field hi.tunnel_id lo.tunnel_id

let pp fmt (t : t) =
  let parts = ref [] in
  let add name s = parts := Printf.sprintf "%s=%s" name s :: !parts in
  Option.iter (fun v -> add "in_port" (string_of_int v)) t.in_port;
  Option.iter (fun v -> add "eth_type" (Printf.sprintf "0x%04x" v)) t.eth_type;
  Option.iter
    (fun { value; mask } ->
      add "ip_src" (Ipv4_addr.to_string (Ipv4_addr.of_int value) ^
                    if mask = Ipv4_addr.mask32 then "" else Printf.sprintf "/%08x" mask))
    t.ip_src;
  Option.iter
    (fun { value; mask } ->
      add "ip_dst" (Ipv4_addr.to_string (Ipv4_addr.of_int value) ^
                    if mask = Ipv4_addr.mask32 then "" else Printf.sprintf "/%08x" mask))
    t.ip_dst;
  Option.iter (fun v -> add "ip_proto" (string_of_int v)) t.ip_proto;
  Option.iter (fun v -> add "l4_src" (string_of_int v)) t.l4_src;
  Option.iter (fun v -> add "l4_dst" (string_of_int v)) t.l4_dst;
  Option.iter (fun v -> add "mpls" (string_of_int v)) t.mpls_label;
  Option.iter (fun v -> add "tunnel" (string_of_int v)) t.tunnel_id;
  if !parts = [] then Format.pp_print_string fmt "match{*}"
  else Format.fprintf fmt "match{%s}" (String.concat "," (List.rev !parts))
