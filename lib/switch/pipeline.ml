(** OpenFlow action and goto semantics, defined once for the datapath
    and the verifier's symbolic walk. *)

open Scotch_openflow
open Scotch_packet

type drop_reason = No_rule | Action

module type TARGET = sig
  type t

  val lookup :
    t -> table_id:int -> in_port:int -> tunnel_id:int option -> Packet.t -> Flow_table.rule
  val emit : t -> int -> Packet.t -> unit
  val flood : t -> in_port:int -> Packet.t -> unit
  val to_controller :
    t -> in_port:int -> tunnel_id:int option -> Of_types.Packet_in_reason.t -> Packet.t -> unit
  val group : t -> Of_types.group_id -> Group_table.group option
  val drop : t -> drop_reason -> unit
end

(* The walk allocates only what a header push or pop must: the actions
   are read in place from the rule, each one applied by direct
   recursion, and the in-port and tunnel id ride along as arguments, so
   no lookup context is built. *)
module Make (T : TARGET) = struct
  let rec apply_actions t ~in_port ~tunnel_id ~via_miss pkt actions =
    match actions with
    | [] -> pkt
    | act :: rest ->
      let pkt =
        match act with
        | Of_action.Output (Of_types.Port_no.Physical p) ->
          if p <> in_port then T.emit t p pkt;
          pkt
        | Of_action.Output Of_types.Port_no.In_port ->
          T.emit t in_port pkt;
          pkt
        | Of_action.Output Of_types.Port_no.Controller ->
          let reason =
            if via_miss then Of_types.Packet_in_reason.No_match
            else Of_types.Packet_in_reason.Action
          in
          T.to_controller t ~in_port ~tunnel_id reason pkt;
          pkt
        | Of_action.Output Of_types.Port_no.All ->
          T.flood t ~in_port pkt;
          pkt
        | Of_action.Output (Of_types.Port_no.Local | Of_types.Port_no.Any) -> pkt
        | Of_action.Group gid ->
          (match T.group t gid with
          | None -> T.drop t Action
          | Some g ->
            let bucket = Group_table.select g ~flow_hash:(Packet.flow_hash pkt) in
            ignore
              (apply_actions t ~in_port ~tunnel_id ~via_miss pkt
                 bucket.Of_msg.Group_mod.actions));
          pkt
        | Of_action.Push_mpls label -> Packet.push_encap (Headers.Encap.mpls label) pkt
        | Of_action.Pop_mpls -> Packet.pop_mpls pkt
      in
      apply_actions t ~in_port ~tunnel_id ~via_miss pkt rest

  (* Every [Apply_actions] list of a rule's instructions, in order. *)
  let rec apply_instructions t ~in_port ~tunnel_id ~via_miss pkt = function
    | [] -> pkt
    | Of_action.Apply_actions actions :: rest ->
      apply_instructions t ~in_port ~tunnel_id ~via_miss
        (apply_actions t ~in_port ~tunnel_id ~via_miss pkt actions)
        rest
    | Of_action.Goto_table _ :: rest -> apply_instructions t ~in_port ~tunnel_id ~via_miss pkt rest

  let rec run_table t ~table_id ~in_port ~tunnel_id pkt =
    let rule = T.lookup t ~table_id ~in_port ~tunnel_id pkt in
    if rule == Flow_table.no_rule then T.drop t No_rule
    else begin
      let via_miss = rule.Flow_table.priority = 0 && Of_match.is_wildcard rule.Flow_table.match_ in
      let instructions = rule.Flow_table.instructions in
      let pkt = apply_instructions t ~in_port ~tunnel_id ~via_miss pkt instructions in
      follow_goto t ~table_id ~in_port ~tunnel_id pkt instructions
    end

  (* The first [Goto_table], followed only when it points forward. *)
  and follow_goto t ~table_id ~in_port ~tunnel_id pkt = function
    | [] -> ()
    | Of_action.Goto_table next :: _ ->
      if next > table_id then run_table t ~table_id:next ~in_port ~tunnel_id pkt
    | Of_action.Apply_actions _ :: rest -> follow_goto t ~table_id ~in_port ~tunnel_id pkt rest
end
