(** Middlebox policy consistency (§5.4).

    A {e segment} is a middlebox bracketed by an upstream switch S_U
    and a downstream switch S_D (Fig. 8).  Policy flows traverse the
    {e same} middlebox instance on both the overlay and the physical
    path.  Shared {e green} rules carry all overlay flows through the
    segment with no per-flow state at the physical switches; per-flow
    {e red} rules (higher priority) override them for physical paths.
    Middlebox chains are expressed by wiring segments back to back, so
    the classifier returns only the entry segment. *)

open Scotch_openflow
open Scotch_topo
open Scotch_packet

val green_priority : int
val red_priority : int

type segment = {
  seg_name : string;
  s_u : int;            (** upstream switch dpid *)
  s_u_mb_port : int;    (** S_U port toward the middlebox *)
  s_d : int;            (** downstream switch dpid *)
  s_d_mb_in_port : int; (** S_D port receiving from the middlebox *)
  in_tunnels : (int, int) Hashtbl.t;  (** vswitch dpid → tunnel vswitch→S_U *)
  out_tunnels : (int, int) Hashtbl.t; (** vswitch dpid → tunnel S_D→vswitch *)
}

type t

(** Starts with no segments and a classifier admitting every flow
    without policy. *)
val create : Topology.t -> t

(** Install the flow → entry-segment mapping. *)
val set_classifier : t -> (Flow_key.t -> segment option) -> unit

val classify : t -> Flow_key.t -> segment option
val segments : t -> segment list

(** Register a segment and build its overlay attachment (tunnels from
    every vswitch to S_U and from S_D back).  The middlebox itself must
    already be wired with {!Topology.insert_middlebox}. *)
val add_segment :
  t -> Overlay.t -> name:string -> s_u:int -> s_u_mb_port:int ->
  s_d:int -> s_d_mb_in_port:int -> segment

(** Tunnel id from a vswitch into the segment's S_U; raises
    [Not_found] when there is none. *)
val entry_tunnel : segment -> vswitch_dpid:int -> int

(** The shared green rules of a segment, as [(dpid, flow_mod)] pairs
    for the Scotch app to send: per entry tunnel at S_U (straight to
    the middlebox port) and per covered destination at S_D (back into a
    delivery-bound tunnel). *)
val green_rules : t -> Overlay.t -> segment -> (int * Of_msg.Flow_mod.t) list

(** Per-flow red rules taking a flow through the segment on the
    physical network, as [(dpid, output port, flow_mod)].  [match_] is
    the flow's {!Of_match.exact_flow}, shared by both rules; their
    instructions come from the run's {!Port_actions} table. *)
val red_rules :
  segment -> Port_actions.t -> match_:Of_match.t -> exit_port:int ->
  (int * int * Of_msg.Flow_mod.t) list

(** Physical path for a policy flow: [Some (plain_hops, exit_port)] —
    ordinary hops before S_U and after S_D, plus S_D's output toward
    the destination (the segment's own hops are the red rules). *)
val physical_path_through :
  t -> segment -> first_hop:int -> dst_ip:Ipv4_addr.t -> ((int * int) list * int) option
