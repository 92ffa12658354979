(** The network: switches, hosts, middleboxes, links, tunnels — plus
    the graph view (adjacency, host attachment points) the controller
    uses for path computation.

    Wiring helpers create the simplex {!Scotch_sim.Link} pairs and set
    their sinks to the peer's receive function, so the data plane is
    connected closures with no central dispatch. *)

open Scotch_switch
open Scotch_openflow

type tunnel = {
  tunnel_id : int;
  src_dpid : Of_types.datapath_id;
  dst : [ `Switch of Of_types.datapath_id | `Host of int ];
  src_port : int; (** tunnel port number at the source switch *)
}

type t

val create : Scotch_sim.Engine.t -> t

(** Registration; raises on duplicate ids. *)
val add_switch : t -> Switch.t -> unit

val add_host : t -> Host.t -> unit
val switch : t -> Of_types.datapath_id -> Switch.t option
val switch_exn : t -> Of_types.datapath_id -> Switch.t
val iter_switches : t -> (Switch.t -> unit) -> unit
val iter_hosts : t -> (Host.t -> unit) -> unit

(** Duplex data link between two switch ports, recorded in the
    adjacency graph. *)
val link_switches : t -> Switch.t * int -> Switch.t * int -> unit

(** Give a host its uplink and the switch a port delivering to it. *)
val attach_host : t -> Host.t -> Switch.t -> port:int -> unit

(** Port number a tunnel occupies at its source switch (globally
    unique, derived from the tunnel id). *)
val tunnel_port_of_id : int -> int

(** Duplex tunnel between two switches (physical ↔ vswitch uplinks, or
    the vswitch mesh, §4.1).  Returns the per-direction tunnel ids.
    Tunnels here are MPLS, {!Scotch_switch.Switch.add_port}'s default
    encapsulation (§4.1 allows "GRE, MPLS, MAC-in-MAC, etc."). *)
val add_tunnel_switches : t -> Switch.t -> Switch.t -> int * int

(** Delivery tunnel from a vswitch to a host (the host-vswitch leg of
    the overlay).  Returns the tunnel id. *)
val add_tunnel_to_host : t -> Switch.t -> Host.t -> int

val tunnel : t -> int -> tunnel option

(** Iterate over every tunnel, in tunnel-id order (determinism for
    verification snapshots). *)
val iter_tunnels : t -> (tunnel -> unit) -> unit

(** Wire S_U → middlebox → S_D (§5.4's typical configuration). *)
val insert_middlebox :
  t -> Middlebox.t -> upstream:Switch.t * int -> downstream:Switch.t * int -> unit

(** {1 Graph queries (the controller's network view)} *)

(** Attachment point [(dpid, port)] of the host owning an address. *)
val host_attachment : t -> Scotch_packet.Ipv4_addr.t -> (int * int) option

(** [(out_port, peer dpid)] adjacency of a switch. *)
val neighbors : t -> Of_types.datapath_id -> (int * int) list

(** Minimum-hop switch path as [(dpid, out_port)] pairs; empty list
    when [src = dst]; [None] when unreachable. *)
val shortest_path :
  t -> src:Of_types.datapath_id -> dst:Of_types.datapath_id -> (int * int) list option

(** Full forwarding path from a switch to the host owning [dst_ip]:
    switch hops then the final host port. *)
val route_to_host :
  t -> src:Of_types.datapath_id -> dst_ip:Scotch_packet.Ipv4_addr.t -> (int * int) list option
