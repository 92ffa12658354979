(** Stateful middleboxes (§5.4 of the paper).

    A middlebox sits between an upstream switch S_U and a downstream
    switch S_D.  It is {e stateful}: the first packet of a flow
    establishes state; a mid-flow packet with no established state is
    rejected — exactly the failure Scotch's policy-consistency design
    must avoid; [state_violations] is how tests observe it.  Packets
    must arrive {e decapsulated} ("the middlebox sees the original
    packet without the tunnel header"); encapsulated arrivals are
    counted and dropped. *)

open Scotch_packet

type t

val create :
  Scotch_sim.Engine.t -> unit -> t

(** Set the link toward the downstream switch S_D. *)
val connect_out : t -> Scotch_sim.Link.t -> unit

(** Process one packet from S_U. *)
val receive : t -> Packet.t -> unit

val processed : t -> int
val state_violations : t -> int
val encap_violations : t -> int
val flows_tracked : t -> int
