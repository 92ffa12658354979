(** OpenFlow action and goto semantics, defined once: the datapath
    ({!Switch}) and the verifier's loop walk run this interpreter, each
    over a {!TARGET} saying what a lookup, an output and a drop do. *)

open Scotch_openflow
open Scotch_packet

(** Why the pipeline gave a packet up. *)
type drop_reason =
  | No_rule  (** a table miss, or a goto past the last table *)
  | Action   (** a missing group or a missing port *)

module type TARGET = sig
  type t

  (** The rule that packet [pkt], arriving on [in_port] (through tunnel
      [tunnel_id]), hits in table [table_id]; {!Flow_table.no_rule} on a
      miss and past the last table. *)
  val lookup :
    t -> table_id:int -> in_port:int -> tunnel_id:int option -> Packet.t -> Flow_table.rule

  (** Output on port [p]; the pipeline never emits on the in-port by
      number, only through [Output In_port]. *)
  val emit : t -> int -> Packet.t -> unit

  (** Output on every normal port except [in_port]. *)
  val flood : t -> in_port:int -> Packet.t -> unit

  val to_controller :
    t -> in_port:int -> tunnel_id:int option -> Of_types.Packet_in_reason.t -> Packet.t -> unit
  val group : t -> Of_types.group_id -> Group_table.group option
  val drop : t -> drop_reason -> unit
end

module Make (T : TARGET) : sig
  (** Execute an action list on a packet that arrived on [in_port]
      (through tunnel [tunnel_id]); returns the packet as rewritten by
      pushes, pops and eth/TTL edits.  [via_miss] makes a controller
      output a table-miss Packet-In. *)
  val apply_actions :
    T.t -> in_port:int -> tunnel_id:int option -> via_miss:bool -> Packet.t ->
    Of_action.t list -> Packet.t

  (** Match in [table_id], apply the hit rule's actions, then follow its
      goto when it points forward. *)
  val run_table :
    T.t -> table_id:int -> in_port:int -> tunnel_id:int option -> Packet.t -> unit
end
