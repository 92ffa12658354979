(** Invariant: no shadowed rules.  A higher-priority rule that fully
    covers a lower-priority one in the same table makes it
    unreachable. *)

open Scotch_switch
open Scotch_packet
module D = Diagnostic
module S = Snapshot

let name = "shadow"

let shadow_diag (n : S.node) ~table_id hi lo =
  D.make ~dpid:n.S.dpid ~table_id ~rule:(Inv_common.subject lo) ~severity:D.Warning
    ~invariant:D.Shadow
    (Format.asprintf "rule is unreachable: fully covered by higher-priority rule %a"
       D.pp_subject (Inv_common.subject hi))

(** Shadow detection in one table.  To stay near-linear on tables full
    of exact per-flow rules, rules pinning an exact 5-tuple are bucketed
    by that key — an exact higher-priority rule can only cover a rule
    constrained to the same 5-tuple — and only the (few) non-exact
    rules are compared against the full table. *)
let table (n : S.node) ~table_id rules =
  let by_key : Flow_table.rule list ref Flow_key.Hashtbl.t = Flow_key.Hashtbl.create 64 in
  let non_exact = ref [] in
  List.iter
    (fun (r : Flow_table.rule) ->
      match Inv_common.flow_key_of_match r.Flow_table.match_ with
      | Some key -> (
        match Flow_key.Hashtbl.find_opt by_key key with
        | Some l -> l := r :: !l
        | None -> Flow_key.Hashtbl.add by_key key (ref [ r ]))
      | None -> non_exact := r :: !non_exact)
    rules;
  let acc = ref [] in
  let consider hi lo =
    if
      hi.Flow_table.priority > lo.Flow_table.priority
      && Inv_common.covers hi.Flow_table.match_ lo.Flow_table.match_
    then acc := shadow_diag n ~table_id hi lo :: !acc
  in
  List.iter (fun hi -> List.iter (fun lo -> consider hi lo) rules) !non_exact;
  Flow_key.Hashtbl.iter
    (fun _ l ->
      match !l with
      | [] | [ _ ] -> ()
      | group -> List.iter (fun hi -> List.iter (fun lo -> consider hi lo) group) group)
    by_key;
  !acc

(** All shadow findings local to one (non-failed) node. *)
let node (n : S.node) =
  List.concat_map (fun (table_id, rules) -> table n ~table_id rules) n.S.rules

let snapshot snap =
  List.concat_map (fun (n : S.node) -> if n.S.failed then [] else node n) snap.S.nodes
