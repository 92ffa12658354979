(** Scotch overlay construction and bookkeeping (§4.1, §5.6): the
    fully connected vswitch mesh, physical-switch uplink tunnels,
    per-host delivery tunnels, the tunnel-id → origin-switch map
    (§5.2), host coverage and vswitch liveness/backup state. *)

open Scotch_switch
open Scotch_topo

type vswitch_info = {
  vsw : Switch.t;
  mesh_out : (int, int) Hashtbl.t;     (** peer vswitch dpid → outgoing tunnel id *)
  host_tunnels : (int, int) Hashtbl.t; (** host ip (int) → delivery tunnel id *)
  mutable is_backup : bool;
  mutable alive : bool;
  mutable quarantined : bool;
      (** circuit breaker open: no new flows, existing ones drain *)
}

type t

val create : Topology.t -> t
val vswitch : t -> int -> vswitch_info option
val iter_vswitches : t -> (vswitch_info -> unit) -> unit

(** Alive, non-backup, non-quarantined vswitches, sorted by dpid. *)
val active_vswitches : t -> vswitch_info list

(** Register a vswitch, meshing it with every vswitch already present
    ("a fully connected vswitch mesh", §4.1).  New vswitches can join a
    running overlay (§5.6). *)
val add_vswitch : t -> Switch.t -> backup:bool -> unit

(** Build uplink tunnels from a physical switch to the named vswitches,
    recording tunnel origins for Packet-In attribution (§5.2). *)
val connect_switch : t -> Switch.t -> to_vswitches:int list -> unit

(** Create the delivery tunnel from a covering vswitch to a host; the
    last registration becomes the primary cover. *)
val cover_host : t -> vswitch_dpid:int -> Host.t -> unit

(** Origin physical switch of an uplink tunnel ("a table to map the
    tunnel id to the physical switch id"). *)
val origin_of_tunnel : t -> int -> int option

(** The per-flow lookups of overlay routing raise [Not_found] rather
    than return an option, so a hit allocates nothing. *)

(** Covering vswitch of a destination, preferring an alive one and
    falling back to any alive vswitch with a delivery tunnel; raises
    [Not_found] when there is none. *)
val cover_of_ip : t -> Scotch_packet.Ipv4_addr.t -> int

(** Delivery tunnel id from a vswitch to a host; raises [Not_found]
    when there is none. *)
val delivery_tunnel : t -> vswitch_dpid:int -> Scotch_packet.Ipv4_addr.t -> int

(** Mesh tunnel id from vswitch [src] to vswitch [dst]; raises
    [Not_found] when there is none. *)
val mesh_tunnel : t -> src:int -> dst:int -> int

(** Uplink tunnels of a physical switch: [(vswitch dpid, tunnel id)]. *)
val uplinks_of : t -> int -> (int * int) list

(** Uplinks restricted to alive, non-quarantined vswitches; backups
    are also excluded when benched via {!set_bench_backups}. *)
val alive_uplinks_of : t -> int -> (int * int) list

(** [set_bench_backups t on] — [on] holds backups in reserve (no
    select-group load until promoted: autoscaler mode); [off]
    (default) lets them share load like any other member. *)
val set_bench_backups : t -> bool -> unit

(** Open/close the circuit breaker on a vswitch: quarantined members
    are excluded from {!active_vswitches}, {!alive_uplinks_of} and
    backup promotion, but existing flows keep draining through them. *)
val set_quarantined : t -> int -> bool -> unit

(** Flip a member between standby and active duty (autoscaler
    promote/demote). *)
val set_backup : t -> int -> bool -> unit

val quarantined_count : t -> int

(** Mark a vswitch dead (heartbeat timeout); returns the backup
    promoted to active duty, if one was available. *)
val mark_dead : t -> int -> int option

(** A recovered vswitch rejoins as a backup (§5.6). *)
val mark_recovered : t -> int -> unit

val size : t -> int
val alive_count : t -> int

(** {1 Snapshot accessors (verification)} *)

(** Every physical switch's uplinks, as [(phys dpid, (vswitch dpid,
    tunnel id) list)], sorted by dpid. *)
val all_uplinks : t -> (int * (int * int) list) list

(** The full tunnel-id → origin-switch table, sorted by tunnel id. *)
val tunnel_origins : t -> (int * int) list

(** The recorded host-coverage table as [(host ip int, vswitch dpid)],
    sorted — the {e recorded} cover, before the alive-fallback of
    {!cover_of_ip}. *)
val covers : t -> (int * int) list
