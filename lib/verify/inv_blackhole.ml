(** Invariant: no blackholes (local, per rule).  Every table hit must
    end somewhere — a rule with no actions and no goto, an output to an
    unknown/disconnected port or unknown group, or a goto outside the
    pipeline or into an empty table all silently drop traffic. *)

open Scotch_openflow
open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "blackhole"

(** The findings of rule [r] in table [table_id] of [n]. *)
let rule snap (n : S.node) ~table_id (r : Flow_table.rule) =
  let subject = Inv_common.subject r in
  let mk = D.make ~dpid:n.S.dpid ~table_id ~rule:subject in
  let actions = Of_action.actions_of_instructions r.Flow_table.instructions in
  let goto = Of_action.goto_of_instructions r.Flow_table.instructions in
  let inert =
    if actions = [] && goto = None then
      [ mk ~severity:D.Error ~invariant:D.Blackhole
          "rule has no actions and no goto: every hit is silently dropped" ]
    else []
  in
  let outputs =
    List.concat_map
      (function
        | Of_action.Output (Of_types.Port_no.Physical p) ->
          Inv_common.check_output snap n ~invariant:D.Blackhole ~dead_severity:D.Warning
            ~table_id ~rule:subject p
        | Of_action.Group gid ->
          if List.exists (fun (g : Group_table.group) -> g.group_id = gid) n.S.groups then []
          else
            [ mk ~severity:D.Error ~invariant:D.Blackhole
                (Printf.sprintf "rule points at unknown group %d" gid) ]
        | _ -> [])
      actions
  in
  let goto_diags =
    match goto with
    | None -> []
    | Some next ->
      if next <= table_id || next >= n.S.num_tables then
        [ mk ~severity:D.Error ~invariant:D.Blackhole
            (Printf.sprintf "goto table %d is outside the pipeline (tables %d..%d)" next
               (table_id + 1) (n.S.num_tables - 1)) ]
      else if Option.fold ~none:true ~some:Classifier.is_empty (S.table n next) then
        [ mk ~severity:D.Error ~invariant:D.Blackhole
            (Printf.sprintf "goto into empty table %d: every hit misses and is dropped" next) ]
      else []
  in
  inert @ outputs @ goto_diags

(** All blackhole findings local to one (non-failed) node. *)
let node snap (n : S.node) =
  List.concat_map
    (fun (table_id, c) -> Classifier.fold (fun r acc -> rule snap n ~table_id r @ acc) c [])
    n.S.tables

let snapshot snap =
  List.concat_map (fun (n : S.node) -> if n.S.failed then [] else node snap n) snap.S.nodes
