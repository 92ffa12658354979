(** Invariant: no shadowed rules.  A higher-priority rule that fully
    covers a lower-priority one in the same table makes it
    unreachable.

    One table's shadow state is built by {!add}ing its rules one at a
    time: the full rescan folds {!add} over each table, and the
    incremental verifier keeps a state per (node, table), feeding it
    {!add} and {!remove} as rules come and go. *)

open Scotch_openflow
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

(** Shadow state of one table.  To stay near-linear on tables full of
    exact per-flow rules, rules pinning an exact 5-tuple are bucketed by
    that key — an exact higher-priority rule can only cover a rule
    constrained to the same 5-tuple — and only the (few) non-exact rules
    are compared against the whole table.  A rule that leaves a port
    unpinned is non-exact: it covers rules of every port pair.  Each
    finding is tagged with the (higher, lower) slot pair that produced
    it, so a removal retracts exactly its own findings. *)
type t = {
  buckets : Flow_table.rule list Flow_key.Hashtbl.t;
  mutable non_exact : Flow_table.rule list;
  mutable found : (Inv_common.slot * Inv_common.slot * D.t) list; (* newest first *)
}

let create () = { buckets = Flow_key.Hashtbl.create 16; non_exact = []; found = [] }

let findings st = List.map (fun (_, _, d) -> d) st.found

let pair st n ~table_id (hi : Flow_table.rule) (lo : Flow_table.rule) =
  if
    hi.Flow_table.priority > lo.Flow_table.priority
    && Inv_common.covers hi.Flow_table.match_ lo.Flow_table.match_
  then
    st.found <-
      (Inv_common.slot_of hi, Inv_common.slot_of lo, shadow_diag n ~table_id hi lo) :: st.found

(* The bucket of a rule that pins the whole 5-tuple, ports included. *)
let bucket_key (m : Of_match.t) =
  match (m.Of_match.l4_src, m.Of_match.l4_dst) with
  | Some _, Some _ -> Inv_common.flow_key_of_match m
  | _ -> None

(* [r] against each rule of a list: as the higher rule when [r_hi], as
   the lower when [r_lo].  Direct recursion, so a rescan allocates no
   closure per bucket. *)
let rec pair_each st n ~table_id ~r_hi ~r_lo r = function
  | [] -> ()
  | x :: rest ->
    if r_hi then pair st n ~table_id r x;
    if r_lo then pair st n ~table_id x r;
    pair_each st n ~table_id ~r_hi ~r_lo r rest

(* The findings [found] gained since it was [before]. *)
let rec since before found =
  if found == before then []
  else match found with (_, _, d) :: rest -> d :: since before rest | [] -> []

(** [add st n ~table_id r] adds [r] to the state and returns the
    findings it creates.  An exact rule is paired with its own bucket in
    both directions and with every non-exact rule as the higher
    candidate; a non-exact rule is paired with the whole table.
    Cross-bucket exact pairs cannot cover each other and are never
    considered. *)
let add st n ~table_id (r : Flow_table.rule) =
  let before = st.found in
  (match bucket_key r.Flow_table.match_ with
  | Some key ->
    let bucket = Option.value (Flow_key.Hashtbl.find_opt st.buckets key) ~default:[] in
    pair_each st n ~table_id ~r_hi:true ~r_lo:true r bucket;
    pair_each st n ~table_id ~r_hi:false ~r_lo:true r st.non_exact;
    Flow_key.Hashtbl.replace st.buckets key (r :: bucket)
  | None ->
    Flow_key.Hashtbl.iter
      (fun _ l -> pair_each st n ~table_id ~r_hi:true ~r_lo:false r l)
      st.buckets;
    pair_each st n ~table_id ~r_hi:true ~r_lo:true r st.non_exact;
    st.non_exact <- r :: st.non_exact);
  since before st.found

(** [remove st r] drops [r]'s slot from the state and returns the
    findings it took part in, now retracted. *)
let remove st (r : Flow_table.rule) =
  let id = Inv_common.slot_of r in
  let other x = Inv_common.slot_of x <> id in
  let dropped, kept = List.partition (fun (h, l, _) -> h = id || l = id) st.found in
  if dropped <> [] then st.found <- kept;
  (match bucket_key r.Flow_table.match_ with
  | Some key -> (
    match Flow_key.Hashtbl.find_opt st.buckets key with
    | None -> ()
    | Some l -> (
      match List.filter other l with
      | [] -> Flow_key.Hashtbl.remove st.buckets key
      | l' -> Flow_key.Hashtbl.replace st.buckets key l'))
  | None -> st.non_exact <- List.filter other st.non_exact);
  List.map (fun (_, _, d) -> d) dropped

(** Shadow detection in one table: {!add} folded over its rules. *)
let table (n : S.node) ~table_id rules =
  let st = create () in
  List.iter (fun r -> ignore (add st n ~table_id r)) rules;
  findings st

(** All shadow findings local to one (non-failed) node. *)
let node (n : S.node) =
  List.concat_map (fun (table_id, rules) -> table n ~table_id rules) n.S.rules

let snapshot snap =
  List.concat_map (fun (n : S.node) -> if n.S.failed then [] else node n) snap.S.nodes
