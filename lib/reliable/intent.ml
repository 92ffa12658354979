(** Per-switch intent store: the flow rules and group buckets the
    controller {e wants} on one switch, as opposed to what the switch
    actually holds.  Every Flow_mod / Group_mod routed through the
    reliable layer is recorded here first; the anti-entropy reconciler
    later diffs this store against flow/group stats read back from the
    device.

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
  group_type : Of_msg.Group_mod.group_type;
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
  | Of_msg.Flow_mod.Add | Of_msg.Flow_mod.Modify ->
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
      { group_id = gm.Of_msg.Group_mod.group_id;
        group_type = gm.Of_msg.Group_mod.group_type;
        buckets = gm.Of_msg.Group_mod.buckets; recorded_at = now }
  | Of_msg.Group_mod.Delete -> Hashtbl.remove t.groups gm.Of_msg.Group_mod.group_id

let find_rule t ~table_id ~priority ~match_ =
  Hashtbl.find_opt t.rules (key ~table_id ~priority ~match_)

(** Drop one intent entry without touching the device — used by the
    reconciler when the switch reports an ephemeral rule expired. *)
let forget_rule t ~table_id ~priority ~match_ =
  Hashtbl.remove t.rules (key ~table_id ~priority ~match_)

let find_group t group_id = Hashtbl.find_opt t.groups group_id

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
