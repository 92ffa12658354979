(** Per-switch intent store: the rules and groups the controller wants
    on one switch.  The reliable send path records every Flow_mod /
    Group_mod here; the anti-entropy reconciler diffs the store against
    stats read back from the device. *)

open Scotch_openflow

type rule = {
  table_id : int;
  priority : int;
  match_ : Of_match.t;
  instructions : Of_action.instructions;
  idle_timeout : float;
  hard_timeout : float;
  cookie : Of_types.cookie;
  recorded_at : float;  (** when the intent was (last) recorded *)
}

type group = {
  group_id : Of_types.group_id;
  group_type : Of_msg.Group_mod.group_type;
  buckets : Of_msg.Group_mod.bucket list;
  recorded_at : float;
}

type t

val create : unit -> t

(** Durable rules never time out and must always exist on the device;
    ephemeral rules (idle/hard timeouts) may legitimately expire. *)
val is_durable : rule -> bool

(** Record the intent effect of a Flow_mod: Add/Modify upserts by
    (table, priority, match); Delete removes every priority holding the
    match in the table, mirroring device semantics. *)
val record_flow_mod : t -> now:float -> Of_msg.Flow_mod.t -> unit

val record_group_mod : t -> now:float -> Of_msg.Group_mod.t -> unit
val find_rule : t -> table_id:int -> priority:int -> match_:Of_match.t -> rule option

(** Drop one entry without touching the device (ephemeral expiry
    acknowledged by the reconciler). *)
val forget_rule : t -> table_id:int -> priority:int -> match_:Of_match.t -> unit

val find_group : t -> Of_types.group_id -> group option

(** Deterministically ordered views. *)
val rules : t -> rule list

val durable_rules : t -> rule list
val groups : t -> group list

(** Rebuild the Flow_mod realizing one intent rule. *)
val flow_mod_of_rule : rule -> Of_msg.Flow_mod.t
