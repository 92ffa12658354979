(** Per-switch intent store: the flow rules and group buckets the
    controller {e wants} on one switch, as opposed to what the switch
    actually holds.  {!diff} is the one definition of intent/device
    divergence, for the anti-entropy reconciler and the verifier alike.

    Each table's rules sit in a {!Classifier}, the index the device
    keeps, so a rule's identity is the device's — its slot within its
    table, what ADD replaces on — and a Delete finds its victims as the
    device does, by {!Classifier.find_all}.  A rule is {e durable} (no
    timeouts: table-miss, overlay redirect, policy rules) or
    {e ephemeral} (per-flow rules with idle/hard timeouts, which the
    switch is allowed to expire on its own). *)

open Scotch_openflow
open Scotch_switch

type rule = int * Classifier.rule

type group = {
  group_id : Of_types.group_id;
  buckets : Of_msg.Group_mod.bucket list;
  recorded_at : float;
}

type t = {
  mutable tables : (int * Classifier.t) list; (* by table id *)
  mutable groups : group list; (* by id *)
}

let create () = { tables = []; groups = [] }

let held t table_id = List.assoc_opt table_id t.tables

(* Table [table_id]'s classifier, made in table-id order if new. *)
let table t table_id =
  match held t table_id with
  | Some c -> c
  | None ->
    let c = Classifier.create () in
    t.tables <- List.merge (fun (a, _) (b, _) -> Int.compare a b) t.tables [ (table_id, c) ];
    c

let is_durable (r : Classifier.rule) = r.idle_timeout = 0.0 && r.hard_timeout = 0.0

let record_flow_mod t ~now (fm : Of_msg.Flow_mod.t) =
  let match_ = Of_match.canonical fm.match_ in
  match fm.command with
  | Of_msg.Flow_mod.Add ->
    let c = table t fm.table_id in
    Option.iter (Classifier.remove c) (Classifier.find c ~priority:fm.priority match_);
    Classifier.add c
      { priority = fm.priority; match_; instructions = fm.instructions;
        idle_timeout = fm.idle_timeout; hard_timeout = fm.hard_timeout; cookie = fm.cookie;
        installed_at = now; last_used = now; packet_count = 0; byte_count = 0 }
  | Of_msg.Flow_mod.Delete ->
    Option.iter
      (fun c -> List.iter (Classifier.remove c) (Classifier.find_all c match_))
      (held t fm.table_id)

let record_group_mod t ~now (gm : Of_msg.Group_mod.t) =
  let others = List.filter (fun g -> g.group_id <> gm.group_id) t.groups in
  t.groups <-
    (match gm.command with
    | Of_msg.Group_mod.Add | Of_msg.Group_mod.Modify ->
      List.merge
        (fun a b -> Int.compare a.group_id b.group_id)
        others
        [ { group_id = gm.group_id; buckets = gm.buckets; recorded_at = now } ]
    | Of_msg.Group_mod.Delete -> others)

let find_rule t ~table_id ~priority ~match_ =
  Option.bind (held t table_id) (fun c -> Classifier.find c ~priority (Of_match.canonical match_))

let forget_rule t ((table_id, r) : rule) =
  Option.iter (fun c -> Classifier.remove c r) (held t table_id)

let fold_rules keep t =
  List.fold_right
    (fun (table_id, c) acc ->
      Classifier.fold (fun r acc -> if keep r then (table_id, r) :: acc else acc) c acc)
    t.tables []

let rules t = fold_rules (fun _ -> true) t

let durable_rules t = fold_rules is_durable t

let groups t = t.groups

let flow_mod_of_rule ((table_id, r) : rule) =
  Of_msg.Flow_mod.add ~table_id ~priority:r.priority ~idle_timeout:r.idle_timeout
    ~hard_timeout:r.hard_timeout ~cookie:r.cookie ~match_:r.match_
    ~instructions:r.instructions ()

let group_mod command (g : group) =
  { Of_msg.Group_mod.command; group_id = g.group_id; buckets = g.buckets }

(** {1 Intent vs device} *)

type group_diff =
  | Group_missing of group
  | Group_changed of group
  | Group_foreign of Of_types.group_id

type diff = {
  groups : group_diff list;
  missing : rule list;
  expired : rule list;
  orphans : Of_msg.Stats.flow_stat list;
}

(* A device rule's slot as a classifier rule: only the slot is read. *)
let slot (fs : Of_msg.Stats.flow_stat) : Classifier.rule =
  { priority = fs.priority; match_ = fs.match_; instructions = []; idle_timeout = 0.0;
    hard_timeout = 0.0; cookie = fs.cookie; installed_at = 0.0; last_used = 0.0;
    packet_count = 0; byte_count = 0 }

(* Entries younger than [grace] — intents by [now -. installed_at],
   device rules by their flow-stat duration — may still be in flight
   and are skipped; foreign groups are reported whatever their age.
   An intent asks a classifier of its table's device rules whether its
   slot is held; an owned device rule asks the store. *)
let diff t ~flow_stats ~group_descs ~now ~grace ~owned =
  let settled recorded_at = now -. recorded_at >= grace in
  let absent =
    List.fold_right
      (fun (table_id, c) acc ->
        let device =
          Classifier.of_list
            (List.filter_map
               (fun (fs : Of_msg.Stats.flow_stat) ->
                 if fs.table_id = table_id then Some (slot fs) else None)
               flow_stats)
        in
        Classifier.fold
          (fun (r : Classifier.rule) acc ->
            if
              settled r.installed_at
              && Option.is_none (Classifier.find device ~priority:r.priority r.match_)
            then (table_id, r) :: acc
            else acc)
          c acc)
      t.tables []
  in
  let missing, expired = List.partition (fun (_, r) -> is_durable r) absent in
  let orphans =
    List.filter
      (fun (fs : Of_msg.Stats.flow_stat) ->
        fs.duration >= grace && List.mem fs.cookie owned
        && Option.is_none
             (find_rule t ~table_id:fs.table_id ~priority:fs.priority ~match_:fs.match_))
      flow_stats
  in
  let changed =
    List.filter_map
      (fun (g : group) ->
        if not (settled g.recorded_at) then None
        else
          match
            List.find_opt (fun (d : Of_msg.Stats.group_desc) -> d.group_id = g.group_id)
              group_descs
          with
          | None -> Some (Group_missing g)
          | Some d when d.buckets <> g.buckets -> Some (Group_changed g)
          | Some _ -> None)
      t.groups
  in
  let foreign =
    List.filter_map
      (fun (d : Of_msg.Stats.group_desc) ->
        if List.exists (fun (g : group) -> g.group_id = d.group_id) t.groups then None
        else Some (Group_foreign d.group_id))
      group_descs
  in
  { groups = changed @ foreign; missing; expired; orphans }
