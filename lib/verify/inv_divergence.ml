(** Invariant: intent/actual divergence (reliable layer).

    Diff each reliable-managed switch's intent store against the
    captured device tables.  Entries younger than the repair grace — on
    either side — may still be in flight and are skipped, mirroring the
    reconciler; failed switches are skipped (the resync-at-recovery
    path owns them).

    Exposed per switch so the incremental verifier can re-diff only the
    switch an install touched; {!deadline} tells it when a currently
    in-grace device rule will age into visibility, so pure time passage
    also triggers the right re-checks. *)

open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "divergence"

(** Divergence findings for one reliable-managed switch. *)
let node snap (st : S.intent_state) (inode : S.intent_node) =
  match S.node snap inode.S.int_dpid with
  | None -> [] (* coverage already reports controlled switches missing entirely *)
  | Some n when n.S.failed -> []
  | Some n ->
    let live =
      List.concat_map (fun (tid, rules) -> List.map (fun r -> (tid, r)) rules) n.S.rules
    in
    let mk = D.make ~dpid:n.S.dpid ~severity:D.Error ~invariant:D.Divergence in
    let missing =
      List.filter_map
        (fun (ir : S.intent_rule) ->
          if (not ir.S.ir_durable) || ir.S.ir_age < st.S.grace then None
          else if
            List.exists
              (fun (tid, (r : Flow_table.rule)) ->
                tid = ir.S.ir_table && r.Flow_table.priority = ir.S.ir_priority
                && r.Flow_table.match_ = ir.S.ir_match)
              live
          then None
          else
            Some
              (mk ~table_id:ir.S.ir_table
                 ~rule:(D.Rule { priority = ir.S.ir_priority; match_ = ir.S.ir_match })
                 "durable intent rule is missing from the device"))
        inode.S.int_rules
    in
    let orphans =
      List.filter_map
        (fun (tid, (r : Flow_table.rule)) ->
          if not (List.mem r.Flow_table.cookie st.S.owned) then None
          else if snap.S.now -. r.Flow_table.installed_at < st.S.grace then None
          else if
            List.exists
              (fun (ir : S.intent_rule) ->
                ir.S.ir_table = tid && ir.S.ir_priority = r.Flow_table.priority
                && ir.S.ir_match = r.Flow_table.match_)
              inode.S.int_rules
          then None
          else
            Some
              (mk ~table_id:tid ~rule:(Inv_common.subject r)
                 "device rule with a reconciler-owned cookie has no intent (orphan)"))
        live
    in
    let group_diags =
      List.filter_map
        (fun (ig : S.intent_group) ->
          if ig.S.ig_age < st.S.grace then None
          else
            match
              List.find_opt (fun (g : Group_table.group) -> g.group_id = ig.S.ig_id) n.S.groups
            with
            | None ->
              Some (mk (Printf.sprintf "intent group %d is missing from the device" ig.S.ig_id))
            | Some g when
                g.group_type <> ig.S.ig_type || g.buckets <> ig.S.ig_buckets ->
              Some
                (mk
                   (Printf.sprintf "group %d buckets on the device differ from intent"
                      ig.S.ig_id))
            | Some _ -> None)
        inode.S.int_groups
      @ List.filter_map
          (fun (g : Group_table.group) ->
            if List.exists (fun (ig : S.intent_group) -> ig.S.ig_id = g.group_id)
                 inode.S.int_groups
            then None
            else Some (mk (Printf.sprintf "device group %d has no intent (orphan)" g.group_id)))
          n.S.groups
    in
    missing @ orphans @ group_diags

(** Earliest future virtual time at which a currently-in-grace
    reconciler-owned device rule on this switch ages past the grace
    window — i.e. when this switch needs re-diffing even without a new
    update. *)
let deadline snap (st : S.intent_state) (inode : S.intent_node) =
  match S.node snap inode.S.int_dpid with
  | None -> None
  | Some n when n.S.failed -> None
  | Some n ->
    List.fold_left
      (fun acc (_, rules) ->
        List.fold_left
          (fun acc (r : Flow_table.rule) ->
            if
              List.mem r.Flow_table.cookie st.S.owned
              && snap.S.now -. r.Flow_table.installed_at < st.S.grace
            then begin
              let due = r.Flow_table.installed_at +. st.S.grace in
              match acc with Some d when d <= due -> acc | _ -> Some due
            end
            else acc)
          acc rules)
      None n.S.rules

let snapshot snap =
  match snap.S.intents with
  | None -> []
  | Some st -> List.concat_map (node snap st) st.S.per_switch
