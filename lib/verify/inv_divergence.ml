(** Invariant: intent/actual divergence (reliable layer).

    Each reliable-managed switch's intent store, read in place, is
    diffed against the snapshot's device tables by
    {!Scotch_reliable.Intent.diff}, the function the reconciler repairs
    from, so the verifier and the reconciler share one definition of
    divergence.  Intents and device rules age on one clock, the
    snapshot's [now]; entries younger than the repair grace may still be
    in flight and are skipped.  Failed switches are skipped (the
    resync-at-recovery path owns them).

    Exposed per switch so the incremental verifier can re-diff only the
    switch an update touched; {!deadline} tells it when an entry now in
    grace (an owned device rule, a durable intent rule, an intent group)
    ages into visibility, so pure time passage also triggers the right
    re-checks. *)

open Scotch_switch
module D = Diagnostic
module S = Snapshot
module Intent = Scotch_reliable.Intent

let name = "divergence"

(** Divergence findings at [now] for one reliable-managed switch [n]. *)
let node ~now (st : S.intent_state) (inode : S.intent_node) (n : S.node) =
  if n.S.failed then []
  else
    let flow_stats =
      List.fold_left
        (fun acc (table_id, c) ->
          Classifier.fold (fun r acc -> Flow_table.stat_of_rule ~table_id ~now r :: acc) c acc)
        [] n.S.tables
    in
    let d =
      Intent.diff inode.S.int_store ~flow_stats ~group_descs:n.S.groups ~now
        ~grace:st.S.grace ~owned:st.S.owned
    in
    let mk = D.make ~dpid:n.S.dpid ~severity:D.Error ~invariant:D.Divergence in
    List.map
      (fun (table_id, (r : Classifier.rule)) ->
        mk ~table_id ~rule:(D.Rule { priority = r.priority; match_ = r.match_ })
          "durable intent rule is missing from the device")
      d.Intent.missing
    @ List.map
        (fun (fs : Scotch_openflow.Of_msg.Stats.flow_stat) ->
          mk ~table_id:fs.table_id
            ~rule:(D.Rule { priority = fs.priority; match_ = fs.match_ })
            "device rule with a reconciler-owned cookie has no intent (orphan)")
        d.Intent.orphans
    @ List.map
        (function
          | Intent.Group_missing g ->
            mk (Printf.sprintf "intent group %d is missing from the device" g.Intent.group_id)
          | Intent.Group_changed g ->
            mk
              (Printf.sprintf "group %d buckets on the device differ from intent"
                 g.Intent.group_id)
          | Intent.Group_foreign id ->
            mk (Printf.sprintf "device group %d has no intent (orphan)" id))
        d.Intent.groups

(** The oldest stamp on switch [n] still inside the repair grace at
    [now]: of a reconciler-owned device rule, a durable intent rule or
    an intent group.  Once [now -. stamp >= grace], the test {!node}
    applies, the switch's findings can change with no update, so it
    needs re-diffing then.  [None] when nothing is in grace. *)
let deadline ~now (st : S.intent_state) (inode : S.intent_node) (n : S.node) =
  if n.S.failed then None
  else
    let oldest at acc =
      if now -. at >= st.S.grace then acc
      else match acc with Some a when a <= at -> acc | _ -> Some at
    in
    let acc =
      List.fold_left
        (fun acc (_, c) ->
          Classifier.fold
            (fun (r : Flow_table.rule) acc ->
              if List.mem r.Flow_table.cookie st.S.owned then oldest r.Flow_table.installed_at acc
              else acc)
            c acc)
        None n.S.tables
    in
    let acc =
      List.fold_left
        (fun acc (_, (r : Classifier.rule)) -> oldest r.installed_at acc)
        acc (Intent.durable_rules inode.S.int_store)
    in
    List.fold_left
      (fun acc (g : Intent.group) -> oldest g.Intent.recorded_at acc)
      acc (Intent.groups inode.S.int_store)

let snapshot snap =
  match snap.S.intents with
  | None -> []
  | Some st ->
    List.concat_map
      (fun (inode : S.intent_node) ->
        match S.node snap inode.S.int_dpid with
        | None -> [] (* coverage already reports controlled switches missing entirely *)
        | Some n -> node ~now:snap.S.now st inode n)
      st.S.per_switch
