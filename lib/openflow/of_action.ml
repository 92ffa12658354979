(** OpenFlow actions and instructions (OpenFlow 1.3 subset).

    The actions Scotch emits: output to physical/tunnel/controller
    ports, group indirection for load balancing, MPLS push/pop with
    label set (the inner ingress-port label of §5.2), and goto-table
    for the two-table miss pipeline.  An empty action list drops. *)

open Of_types

type t =
  | Output of Port_no.t
  | Group of group_id
  | Push_mpls of int            (* push label (combines PUSH_MPLS + SET_FIELD) *)
  | Pop_mpls

(** Instructions attached to a flow entry.  [Apply_actions] executes
    immediately; [Goto_table] continues matching in a later table
    (§5.2: "two flow tables are needed at the physical switch"). *)
type instruction =
  | Apply_actions of t list
  | Goto_table of table_id

type instructions = instruction list

(** Actions contained in a list of instructions, in execution order. *)
let actions_of_instructions instrs =
  List.concat_map (function Apply_actions acts -> acts | Goto_table _ -> []) instrs

(** Next table, if the instructions continue the pipeline. *)
let goto_of_instructions instrs =
  List.find_map (function Goto_table t -> Some t | Apply_actions _ -> None) instrs

(** [output port] as a single-instruction list — the common case. *)
let output port = [ Apply_actions [ Output port ] ]

(** Send to the controller (Packet-In via action). *)
let to_controller = [ Apply_actions [ Output Port_no.Controller ] ]
