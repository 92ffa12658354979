(** Per-switch intent store: the flow rules and group buckets the
    controller {e wants} on one switch, as opposed to what the switch
    actually holds.  Every Flow_mod / Group_mod routed through the
    reliable layer is recorded here first.  {!diff} is the one
    definition of intent/device divergence: the anti-entropy reconciler
    applies it to flow/group stats read back from the device, and the
    verifier's Divergence invariant to a captured snapshot.

    Rules are keyed by (table, priority, match) — the identity a
    switch uses for ADD-replaces — and classified as {e durable} (no
    timeouts: table-miss, overlay redirect, policy rules) or
    {e ephemeral} (per-flow rules with idle/hard timeouts, which the
    switch is allowed to expire on its own). *)

open Scotch_openflow

type rule = {
  table_id : int;
  priority : int;
  match_ : Of_match.t;
  instructions : Of_action.instructions;
  idle_timeout : float;
  hard_timeout : float;
  cookie : Of_types.cookie;
  recorded_at : float; (* when the intent was (last) recorded *)
}

type group = {
  group_id : Of_types.group_id;
  buckets : Of_msg.Group_mod.bucket list;
  recorded_at : float;
}

(* rule identity: (table, priority, match) — what ADD replaces on *)
type key = int * int * Of_match.t

type t = {
  rules : (key, rule) Hashtbl.t;
  groups : (int, group) Hashtbl.t;
}

let create () = { rules = Hashtbl.create 32; groups = Hashtbl.create 4 }

let key ~table_id ~priority ~match_ : key = (table_id, priority, match_)

(** Durable rules never time out; they must exist on the device at all
    times.  Ephemeral rules may legitimately be absent (expired). *)
let is_durable r = r.idle_timeout = 0.0 && r.hard_timeout = 0.0

let record_flow_mod t ~now (fm : Of_msg.Flow_mod.t) =
  match fm.Of_msg.Flow_mod.command with
  | Of_msg.Flow_mod.Add ->
    let r =
      { table_id = fm.Of_msg.Flow_mod.table_id; priority = fm.Of_msg.Flow_mod.priority;
        match_ = fm.Of_msg.Flow_mod.match_; instructions = fm.Of_msg.Flow_mod.instructions;
        idle_timeout = fm.Of_msg.Flow_mod.idle_timeout;
        hard_timeout = fm.Of_msg.Flow_mod.hard_timeout; cookie = fm.Of_msg.Flow_mod.cookie;
        recorded_at = now }
    in
    Hashtbl.replace t.rules (key ~table_id:r.table_id ~priority:r.priority ~match_:r.match_) r
  | Of_msg.Flow_mod.Delete ->
    (* mirror the device: Delete removes every priority holding this
       exact match in the table *)
    let doomed =
      Hashtbl.fold
        (fun ((tbl, _, m) as k) _ acc ->
          if tbl = fm.Of_msg.Flow_mod.table_id && m = fm.Of_msg.Flow_mod.match_ then k :: acc
          else acc)
        t.rules []
    in
    List.iter (Hashtbl.remove t.rules) doomed

let record_group_mod t ~now (gm : Of_msg.Group_mod.t) =
  match gm.Of_msg.Group_mod.command with
  | Of_msg.Group_mod.Add | Of_msg.Group_mod.Modify ->
    Hashtbl.replace t.groups gm.Of_msg.Group_mod.group_id
      { group_id = gm.Of_msg.Group_mod.group_id; buckets = gm.Of_msg.Group_mod.buckets;
        recorded_at = now }
  | Of_msg.Group_mod.Delete -> Hashtbl.remove t.groups gm.Of_msg.Group_mod.group_id

let find_rule t ~table_id ~priority ~match_ =
  Hashtbl.find_opt t.rules (key ~table_id ~priority ~match_)

(** Drop one intent entry without touching the device — used by the
    reconciler when the switch reports an ephemeral rule expired. *)
let forget_rule t ~table_id ~priority ~match_ =
  Hashtbl.remove t.rules (key ~table_id ~priority ~match_)

let compare_rules a b =
  compare (a.table_id, a.priority, a.match_) (b.table_id, b.priority, b.match_)

(** All intent rules, deterministically ordered. *)
let rules t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rules [] |> List.sort compare_rules

let durable_rules t = List.filter is_durable (rules t)

(** All intent groups, by id. *)
let groups t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.groups []
  |> List.sort (fun a b -> compare a.group_id b.group_id)

(** Rebuild the Flow_mod that realizes one intent rule. *)
let flow_mod_of_rule (r : rule) =
  Of_msg.Flow_mod.add ~table_id:r.table_id ~priority:r.priority
    ~idle_timeout:r.idle_timeout ~hard_timeout:r.hard_timeout ~cookie:r.cookie
    ~match_:r.match_ ~instructions:r.instructions ()

(** The Group_mod that sets one intent group, by Add or Modify. *)
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

(* Entries younger than [grace] — intents by [now -. recorded_at],
   device rules by their flow-stat duration — may still be in flight
   and are skipped; foreign groups are reported whatever their age. *)
let diff ~rules ~groups ~flow_stats ~group_descs ~now ~grace ~owned =
  let rule_key (r : rule) = key ~table_id:r.table_id ~priority:r.priority ~match_:r.match_ in
  let stat_key (fs : Of_msg.Stats.flow_stat) =
    key ~table_id:fs.table_id ~priority:fs.priority ~match_:fs.match_
  in
  let index key_of l =
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (key_of x) ()) l;
    h
  in
  let on_device = index stat_key flow_stats and intended = index rule_key rules in
  let settled recorded_at = now -. recorded_at >= grace in
  let missing, expired =
    List.filter
      (fun (r : rule) -> settled r.recorded_at && not (Hashtbl.mem on_device (rule_key r)))
      rules
    |> List.partition is_durable
  in
  let orphans =
    List.filter
      (fun (fs : Of_msg.Stats.flow_stat) ->
        fs.duration >= grace && List.mem fs.cookie owned
        && not (Hashtbl.mem intended (stat_key fs)))
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
      groups
  in
  let foreign =
    List.filter_map
      (fun (d : Of_msg.Stats.group_desc) ->
        if List.exists (fun (g : group) -> g.group_id = d.group_id) groups then None
        else Some (Group_foreign d.group_id))
      group_descs
  in
  { groups = changed @ foreign; missing; expired; orphans }
