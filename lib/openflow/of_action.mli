(** OpenFlow actions and instructions (OpenFlow 1.3 subset).

    The actions Scotch emits: output to physical/tunnel/controller
    ports, group indirection for load balancing, MPLS push/pop with
    label set (the ingress-port label of §5.2), and goto-table for the
    two-table miss pipeline.  An empty action list drops. *)

open Of_types

type t =
  | Output of Port_no.t
  | Group of group_id
  | Push_mpls of int  (** push a label (PUSH_MPLS + SET_FIELD combined) *)
  | Pop_mpls

(** Instructions attached to a flow entry: [Apply_actions] executes
    immediately; [Goto_table] continues matching in a later table
    (§5.2: "two flow tables are needed at the physical switch"). *)
type instruction =
  | Apply_actions of t list
  | Goto_table of table_id

type instructions = instruction list

(** Actions contained in an instruction list, in execution order. *)
val actions_of_instructions : instructions -> t list

(** Next table, if the instructions continue the pipeline. *)
val goto_of_instructions : instructions -> table_id option

(** [output port] as a single-instruction list. *)
val output : Port_no.t -> instructions

(** Send to the controller (Packet-In via action). *)
val to_controller : instructions
