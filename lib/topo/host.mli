(** End hosts: traffic sources and sinks.

    A host has one uplink into the network and may additionally be the
    endpoint of Scotch delivery tunnels (modeling the hypervisor
    host-vswitch of §4.1, which strips the tunnel header and hands the
    packet to the destination VM).  Hosts record per-flow reception
    only (a packet count, the first arrival and the summed delay), so
    experiments can compute flow-failure fractions and completion
    times; a per-packet measurement registers {!on_receive}. *)

open Scotch_packet

type flow_record = {
  mutable packets : int;
  first_seen : float;
  mutable delay_sum : float; (** sum of one-way packet delays *)
}

type t

(** Hosts get stable addresses derived from [id] ({!Mac.of_host_id},
    {!Ipv4_addr.of_host_id}). *)
val create : Scotch_sim.Engine.t -> id:int -> name:string -> t

val set_uplink : t -> Scotch_sim.Link.t -> unit

(** Transmit on the uplink.  Raises [Invalid_argument] when the host
    has none. *)
val send : t -> Packet.t -> unit

(** Called by the network when a packet reaches this host (directly or
    via a delivery tunnel): strips all encapsulations and records the
    reception. *)
val deliver : t -> Packet.t -> unit

val id : t -> int
val name : t -> string
val mac : t -> Mac.t
val ip : t -> Ipv4_addr.t
val received_packets : t -> int

(** Number of distinct flows with at least one delivered packet. *)
val flows_seen : t -> int

val flow_record : t -> int -> flow_record option

(** Register a callback invoked on each delivered (decapsulated)
    packet. *)
val on_receive : t -> (Packet.t -> unit) -> unit
