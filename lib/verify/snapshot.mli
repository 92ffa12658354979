(** A side-effect-free view of the whole network for static
    verification: every switch's live flow rules (one
    {!Scotch_switch.Classifier} per table), group buckets and
    ports (with where each port's output lands), the host attachment
    map, and — when a Scotch app is supplied — the controller's overlay
    bookkeeping (vswitch liveness, uplinks, tunnel origins, host
    coverage, mesh and delivery tunnels).  Device state is frozen at
    capture; the reliable layer's intent stores are not copied but read
    in place, and are aged, like the device rules, at [now].

    All record fields are transparent so tests can forge known-bad
    states without driving a simulation. *)

open Scotch_switch

(** Where output on a port lands. *)
type endpoint =
  | To_switch of { peer : int; peer_in_port : int }
  | To_host of int  (** host id *)
  | Opaque
      (** connected, but the destination is outside the switch graph
          (e.g. a middlebox leg): the checker cannot trace further and
          treats delivery here as terminal *)
  | Disconnected  (** no outgoing link: output here is silently dropped *)

type port = {
  port_id : int;
  tunnel : int option;    (** tunnel id when this is a tunnel port *)
  link_up : bool option;  (** [None] = input-only port (no outgoing link) *)
  endpoint : endpoint;
}

(** One switch: identity, failure state, rules per table, groups
    (sorted by id) and ports. *)
type node = {
  dpid : int;
  failed : bool;
  num_tables : int;
  tables : (int * Classifier.t) list;
      (** (table id, rules), by table id: each table's rules in the
          index its flow table uses.  {!capture} fills fresh ones with
          the live rules; the incremental verifier's model edits its
          own in place. *)
  groups : Group_table.group list;
  ports : port list;
}

type host = {
  host_ip : int;   (** {!Scotch_packet.Ipv4_addr.to_int} form *)
  attach_dpid : int;
  attach_port : int;
}

(** One reliable-managed switch's intent store, read in place: the
    reliable layer's own {!Scotch_reliable.Intent.t}, which its later
    records keep editing. *)
type intent_node = {
  int_dpid : int;
  int_store : Scotch_reliable.Intent.t;
}

(** The reliable layer's intent stores, with the repair grace (entries
    younger than it at the snapshot's [now] may still be in flight) and
    the cookies whose device rules the reconciler owns. *)
type intent_state = {
  grace : float;
  owned : Scotch_openflow.Of_types.cookie list;
  per_switch : intent_node list;  (** by dpid *)
}

(** The controller's overlay bookkeeping (§4.1, §5.2, §5.6). *)
type overlay_state = {
  vswitches : (int * bool * bool) list;  (** (dpid, alive, is_backup) *)
  uplinks : (int * (int * int) list) list;
      (** (phys dpid, (vswitch dpid, uplink tunnel id) list) *)
  tunnel_origins : (int * int) list;     (** uplink tunnel id → phys dpid *)
  covers : (int * int) list;             (** host ip → recorded covering vswitch *)
  mesh : (int * (int * int) list) list;
      (** (vswitch dpid, (peer vswitch dpid, tunnel id) list) *)
  deliveries : (int * (int * int) list) list;
      (** (vswitch dpid, (host ip, delivery tunnel id) list) *)
}

type t = {
  now : float;
  nodes : node list;        (** sorted by dpid *)
  hosts : host list;        (** sorted by ip *)
  managed : int list;       (** Scotch-managed physical switches *)
  vswitch_dpids : int list; (** controller-registered overlay vswitches *)
  overlay : overlay_state option;
  intents : intent_state option;
      (** present when the app routes installs through a reliable layer *)
}

val node : t -> int -> node option
val find_port : node -> int -> port option

(** Table [table_id] of a node, when the node has it. *)
val table : node -> int -> Classifier.t option

(** Dpids with a controller connection (managed + vswitches) — the
    switches the table-miss coverage invariant applies to. *)
val controlled : t -> int list

(** [capture ?scotch ~now topo] freezes the network.  With [scotch],
    the snapshot also carries the app's overlay bookkeeping and the
    managed/vswitch dpid sets. *)
val capture : ?scotch:Scotch_core.Scotch.t -> now:float -> Scotch_topo.Topology.t -> t

(** Every registered switch's intent store, in place: what {!capture}
    puts in [intents] when the app has a reliable layer. *)
val reliable_intents : Scotch_reliable.Reliable.t -> intent_state
