(** Invariant: no blackholes (local, per rule).  Every table hit must
    end somewhere — a rule with no actions and no goto, an output to an
    unknown/disconnected port or unknown group, or a goto outside the
    pipeline or into an empty table all silently drop traffic. *)

open Scotch_openflow
open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "blackhole"

(* The clean-rule test, read from the rule's instructions in place and
   allocating nothing: every output goes to a port {!Inv_common.output_clean}
   accepts, every group is known, some action or goto exists, and the
   first goto leads forward into a non-empty table.  Exactly the rules
   for which {!findings} returns [[]] pass. *)

let rec group_known gid = function
  | [] -> false
  | (g : Group_table.group) :: rest -> g.group_id = gid || group_known gid rest

let rec actions_clean snap (n : S.node) = function
  | [] -> true
  | Of_action.Output (Of_types.Port_no.Physical p) :: rest ->
    Inv_common.output_clean snap p n.S.ports && actions_clean snap n rest
  | Of_action.Group gid :: rest -> group_known gid n.S.groups && actions_clean snap n rest
  | _ :: rest -> actions_clean snap n rest

(* a missing table counts as empty *)
let rec table_filled table_id = function
  | [] -> false
  | (id, c) :: rest ->
    if id = table_id then not (Classifier.is_empty c) else table_filled table_id rest

let goto_clean (n : S.node) ~table_id next =
  next > table_id && next < n.S.num_tables && table_filled next n.S.tables

let rec clean snap n ~table_id ~acts ~goto = function
  | [] -> acts || goto
  | Of_action.Apply_actions a :: rest ->
    let acts = match a with [] -> acts | _ :: _ -> true in
    actions_clean snap n a && clean snap n ~table_id ~acts ~goto rest
  | Of_action.Goto_table next :: rest ->
    (goto || goto_clean n ~table_id next) && clean snap n ~table_id ~acts ~goto:true rest

(* The findings of a rule that failed the clean test, worded for the
   report. *)
let findings snap (n : S.node) ~table_id (r : Flow_table.rule) =
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
          if group_known gid n.S.groups then []
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
      else if not (table_filled next n.S.tables) then
        [ mk ~severity:D.Error ~invariant:D.Blackhole
            (Printf.sprintf "goto into empty table %d: every hit misses and is dropped" next) ]
      else []
  in
  inert @ outputs @ goto_diags

(** The findings of rule [r] in table [table_id] of [n]; a clean rule
    costs no allocation. *)
let rule snap (n : S.node) ~table_id (r : Flow_table.rule) =
  if clean snap n ~table_id ~acts:false ~goto:false r.Flow_table.instructions then []
  else findings snap n ~table_id r

(** All blackhole findings local to one (non-failed) node. *)
let node snap (n : S.node) =
  List.concat_map
    (fun (table_id, c) -> Classifier.fold (fun r acc -> rule snap n ~table_id r @ acc) c [])
    n.S.tables

let snapshot snap =
  List.concat_map (fun (n : S.node) -> if n.S.failed then [] else node snap n) snap.S.nodes
