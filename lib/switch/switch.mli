(** An OpenFlow switch: data-plane pipeline + {!Ofa} control agent.

    The same implementation models hardware switches and Open vSwitches;
    only the {!Profile} differs.  Ports are integers; a port may be a
    tunnel endpoint — on output the packet is encapsulated with the
    tunnel id, on input the header is stripped and exposed to the
    pipeline as [tunnel_id] metadata.  This is how the Scotch overlay
    rides the data plane without touching any OFA (§4.1). *)

open Scotch_openflow

type port_kind = Normal | Tunnel of int (** tunnel id *)

(** A dataplane state change, as seen by a {!set_on_update} observer.
    Table events carry the applied rule delta (from
    {!Flow_table.set_on_change}, so capacity sweeps are covered too);
    for groups and liveness the observer reads the new state through
    the normal accessors ([group_table], [ports_snapshot]). *)
type update_event =
  | Table_changed of {
      table_id : int;
      added : Flow_table.rule list;
      removed : Flow_table.rule list;
    }  (** flow table [table_id] applied this rule delta *)
  | Groups_changed            (** the group table changed *)
  | Liveness_changed of bool  (** switch failed (true) or revived (false) *)

type counters = {
  mutable rx : int;
  mutable tx : int;
  mutable dropped_blocked : int;   (** datapath stalled by TCAM writes *)
  mutable dropped_capacity : int;  (** datapath pps exceeded *)
  mutable dropped_no_rule : int;   (** table miss with no miss rule *)
  mutable dropped_action : int;    (** missing group / unconnected port *)
}

type t

(** [create engine ~dpid ~name ~profile ()] builds a switch with two
    flow tables: Scotch's two-table miss pipeline. *)
val create :
  Scotch_sim.Engine.t -> dpid:Of_types.datapath_id -> name:string -> profile:Profile.t ->
  unit -> t

(** The switch's control agent. *)
val ofa : t -> Ofa.t

(** Data-plane entry point: capacity and TCAM-stall gates, tunnel
    decapsulation, then the pipeline from table 0. *)
val receive : t -> in_port:int -> Scotch_packet.Packet.t -> unit

(** Attach an outgoing link on a port; the peer is whatever the link's
    sink delivers to.  Raises on duplicate port ids. *)
val add_port :
  t -> port_id:int -> ?kind:port_kind -> Scotch_sim.Link.t -> unit

(** Declare an input-only port (where only the peer sends). *)
val add_input_port : t -> port_id:int -> ?kind:port_kind -> unit -> unit

(** Failure injection: kill or revive both planes. *)
val set_failed : t -> bool -> unit

val is_failed : t -> bool

(** The outgoing link attached to a port, if any (fault injection:
    link-flap targets are addressed as (switch, port)). *)
val link_of_port : t -> int -> Scotch_sim.Link.t option

(** Ids of the normal (non-tunnel) ports, sorted. *)
val normal_ports : t -> int list

val all_ports : t -> int list

(** Every port with its kind and outgoing link, sorted by port id — the
    port half of a verification snapshot; [None] link = input-only. *)
val ports_snapshot : t -> (int * port_kind * Scotch_sim.Link.t option) list
val dpid : t -> Of_types.datapath_id

(** Attach (or detach, with [None]) a telemetry sampler fed from the
    receive path, after tunnel decap and the admission gates.  [None]
    (the default) leaves the datapath identical to a telemetry-free
    build — no RNG draws, no extra work per packet. *)
val set_sampler : t -> Scotch_telemetry.Sampler.t option -> unit

val sampler : t -> Scotch_telemetry.Sampler.t option

(** Attach (or detach, with [None]) a dataplane-update observer, fired
    synchronously after every applied rule mutation, group-mod or
    liveness flip — the incremental verifier's tap.  Wires (or clears)
    every flow table's {!Flow_table.set_on_change}; [None] (the
    default) leaves the tables observer-free and costs nothing on the
    packet path. *)
val set_on_update : t -> (update_event -> unit) option -> unit
val counters : t -> counters
val tables : t -> Flow_table.t array
val table : t -> int -> Flow_table.t
val group_table : t -> Group_table.t

(** The OFA's answer to a flow-stats request: the live rules [req]
    selects, of every table or of the one it names, in table order and
    then each table's {!Flow_table.stats} order. *)
val flow_stats : t -> Of_msg.Stats.flow_stats_request -> Of_msg.Stats.flow_stats_reply

(** Install a permanent rule with no cookie directly, bypassing the
    OFA (tests and proactive setup).  To plant a rule with a cookie,
    {!Flow_table.insert} into {!table}. *)
val install_direct :
  t -> table_id:int -> priority:int -> match_:Of_match.t ->
  instructions:Of_action.instructions -> unit -> (unit, [ `Table_full ]) result
