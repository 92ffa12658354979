(** Invariant: no shadowed rules.  A higher-priority rule that fully
    covers a lower-priority one in the same table makes it
    unreachable.

    A pure function of the table's classifier, which answers both
    halves of a pair: {!Classifier.fold_covering} finds the rules
    covering a given one, {!Classifier.fold_covered} those it covers.
    The rescan takes each rule as the lower rule only, so it finds each
    pair once; the incremental verifier ledgers a rule's {!pairs} in
    both directions after the rule enters its classifier and before it
    leaves, one rule at a time, so each pair enters and leaves the
    ledger once. *)

open Scotch_openflow
open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "shadow"

let shadow_diag (n : S.node) ~table_id hi lo =
  D.make ~dpid:n.S.dpid ~table_id ~rule:(Inv_common.subject lo) ~severity:D.Warning
    ~invariant:D.Shadow
    (Format.asprintf "rule is unreachable: fully covered by higher-priority rule %a"
       D.pp_subject (Inv_common.subject hi))

(** The findings of every pair [r] takes part in with the rules of [c],
    as the higher rule or the lower. *)
let pairs (n : S.node) ~table_id c (r : Flow_table.rule) =
  Classifier.fold_covered
    (fun lo acc -> shadow_diag n ~table_id r lo :: acc)
    c r
    (Classifier.fold_covering (fun hi acc -> shadow_diag n ~table_id hi r :: acc) c r [])

(* What [table]'s one cover callback reads the lower rule from before
   the first rule is asked about. *)
let no_rule : Flow_table.rule =
  { Flow_table.priority = 0; match_ = Of_match.wildcard; instructions = []; idle_timeout = 0.0;
    hard_timeout = 0.0; cookie = Of_types.cookie_none; installed_at = 0.0; last_used = 0.0;
    packet_count = 0; byte_count = 0 }

(** Shadow findings of one table: each rule with the rules covering it.
    One cover callback serves the whole table, so a rule nothing covers
    costs no allocation. *)
let table (n : S.node) ~table_id c =
  let lo = ref no_rule in
  let covered hi acc = shadow_diag n ~table_id hi !lo :: acc in
  Classifier.fold
    (fun r acc ->
      lo := r;
      Classifier.fold_covering covered c r acc)
    c []

(** All shadow findings local to one (non-failed) node. *)
let node (n : S.node) = List.concat_map (fun (table_id, c) -> table n ~table_id c) n.S.tables

let snapshot snap =
  List.concat_map (fun (n : S.node) -> if n.S.failed then [] else node n) snap.S.nodes
