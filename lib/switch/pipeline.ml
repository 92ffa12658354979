(** OpenFlow action and goto semantics, defined once for the datapath
    and the verifier's symbolic walk. *)

open Scotch_openflow
open Scotch_packet

type drop_reason = No_rule | Action

module type TARGET = sig
  type t

  val lookup : t -> table_id:int -> Of_match.context -> Flow_table.rule option
  val emit : t -> int -> Packet.t -> unit
  val flood : t -> in_port:int -> Packet.t -> unit
  val to_controller : t -> Of_match.context -> Of_types.Packet_in_reason.t -> Packet.t -> unit
  val group : t -> Of_types.group_id -> Group_table.group option
  val drop : t -> drop_reason -> unit
end

module Make (T : TARGET) = struct
  let rec apply_actions t ~(ctx : Of_match.context) ~via_miss pkt actions =
    match actions with
    | [] -> pkt
    | act :: rest ->
      let continue pkt = apply_actions t ~ctx ~via_miss pkt rest in
      (match act with
      | Of_action.Output (Of_types.Port_no.Physical p) ->
        if p <> ctx.Of_match.in_port then T.emit t p pkt;
        continue pkt
      | Of_action.Output Of_types.Port_no.In_port ->
        T.emit t ctx.Of_match.in_port pkt;
        continue pkt
      | Of_action.Output Of_types.Port_no.Controller ->
        let reason =
          if via_miss then Of_types.Packet_in_reason.No_match
          else Of_types.Packet_in_reason.Action
        in
        T.to_controller t ctx reason pkt;
        continue pkt
      | Of_action.Output Of_types.Port_no.All ->
        T.flood t ~in_port:ctx.Of_match.in_port pkt;
        continue pkt
      | Of_action.Output (Of_types.Port_no.Local | Of_types.Port_no.Any) -> continue pkt
      | Of_action.Group gid -> (
        match T.group t gid with
        | None ->
          T.drop t Action;
          continue pkt
        | Some g ->
          let flow_hash = Flow_key.hash (Packet.flow_key pkt) in
          ignore
            (apply_actions t ~ctx ~via_miss pkt
               (Group_table.select g ~flow_hash).Of_msg.Group_mod.actions);
          continue pkt)
      | Of_action.Push_mpls label -> continue (Packet.push_encap (Headers.Encap.mpls label) pkt)
      | Of_action.Pop_mpls ->
        continue (match Packet.pop_encap pkt with Some (Headers.Encap.Mpls _, p) -> p | _ -> pkt))

  let rec run_table t ~table_id ~(ctx : Of_match.context) pkt =
    let ctx = { ctx with Of_match.packet = pkt } in
    match T.lookup t ~table_id ctx with
    | None -> T.drop t No_rule
    | Some rule ->
      let via_miss = rule.Flow_table.priority = 0 && Of_match.is_wildcard rule.Flow_table.match_ in
      let actions = Of_action.actions_of_instructions rule.Flow_table.instructions in
      let pkt = apply_actions t ~ctx ~via_miss pkt actions in
      (match Of_action.goto_of_instructions rule.Flow_table.instructions with
      | Some next when next > table_id -> run_table t ~table_id:next ~ctx pkt
      | Some _ | None -> ())
end
