(** OpenFlow match structure (OXM-style, with per-field presence and
    masks where OpenFlow 1.3 allows them), and evaluation against a
    packet lookup context. *)

open Scotch_packet

(** The fields a switch extracts from a packet before table lookup;
    [tunnel_id] is the logical tunnel the packet arrived on (set by the
    datapath for tunnel-port arrivals, mirroring OXM_OF_TUNNEL_ID). *)
type context = {
  in_port : int;
  tunnel_id : int option;
  packet : Packet.t;
}

val context : ?tunnel_id:int -> in_port:int -> Packet.t -> context

(** A masked 32-bit match on an IP field.  [value] keeps only the bits
    inside [mask]: the builders and {!canonical} clear the rest, so two
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
  mpls_label : int option; (** outermost label *)
  tunnel_id : int option;
}

(** The all-wildcard match.  At priority 0 this is the table-miss rule
    shape — the rule Scotch's overlay redirection replaces (§4). *)
val wildcard : t

val with_in_port : int -> t -> t
val with_eth_type : int -> t -> t
val with_ip_src : ?mask:int -> Ipv4_addr.t -> t -> t
val with_ip_dst : ?mask:int -> Ipv4_addr.t -> t -> t
val with_ip_proto : int -> t -> t
val with_l4_src : int -> t -> t
val with_l4_dst : int -> t -> t
val with_mpls_label : int -> t -> t
val with_tunnel_id : int -> t -> t

(** [exact_flow key] matches exactly the 5-tuple [key] — the per-flow
    rule shape reactive controllers install. *)
val exact_flow : Flow_key.t -> t

(** [flow_key m] is the 5-tuple [m] pins when it pins the protocol and
    both IPs at /32, a port it leaves unpinned reading 0: the inverse of
    {!exact_flow}. *)
val flow_key : t -> Flow_key.t option

(** [canonical t] is [t] with each IP value reduced to the bits inside
    its mask — [t] itself, unallocated, when it already is.  For
    matches built as record literals (the builders already do this). *)
val canonical : t -> t

(** All present fields must agree; IP fields compare the {e inner}
    packet (encapsulations ignored). *)
val matches : t -> context -> bool

(** Number of specified fields. *)
val specificity : t -> int

val is_wildcard : t -> bool
val equal : t -> t -> bool

(** [selects filter m]: every field specified in [filter] is present in
    [m] with the same value ([m] may be strictly more specific) — the
    multipart flow-stats request filter.  The wildcard selects
    everything. *)
val selects : t -> t -> bool

(** [covers hi lo]: every packet matching [lo] also matches [hi] —
    each field [hi] pins, [lo] pins to the same value, and each IP
    prefix of [hi] contains [lo]'s. *)
val covers : t -> t -> bool

val pp : Format.formatter -> t -> unit
