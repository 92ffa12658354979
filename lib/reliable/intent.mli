(** Per-switch intent store: the rules and groups the controller wants
    on one switch.  The reliable send path records every Flow_mod /
    Group_mod here.  {!diff} decides what the device lacks or holds
    extra; the anti-entropy reconciler and the verifier's Divergence
    invariant both call it. *)

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
  buckets : Of_msg.Group_mod.bucket list;
  recorded_at : float;
}

type t

val create : unit -> t

(** Record the intent effect of a Flow_mod: Add upserts by
    (table, priority, match); Delete removes every priority holding the
    match in the table, mirroring device semantics. *)
val record_flow_mod : t -> now:float -> Of_msg.Flow_mod.t -> unit

val record_group_mod : t -> now:float -> Of_msg.Group_mod.t -> unit
val find_rule : t -> table_id:int -> priority:int -> match_:Of_match.t -> rule option

(** Drop one entry without touching the device (ephemeral expiry
    acknowledged by the reconciler). *)
val forget_rule : t -> table_id:int -> priority:int -> match_:Of_match.t -> unit

(** Deterministically ordered views. *)
val rules : t -> rule list

val durable_rules : t -> rule list
val groups : t -> group list

(** Rebuild the Flow_mod realizing one intent rule. *)
val flow_mod_of_rule : rule -> Of_msg.Flow_mod.t

(** The Group_mod that sets one intent group by [command] (Add or
    Modify). *)
val group_mod : Of_msg.Group_mod.command -> group -> Of_msg.Group_mod.t

(** {1 Intent vs device} *)

(** One group difference. *)
type group_diff =
  | Group_missing of group  (** intent group absent from the device *)
  | Group_changed of group  (** on the device with other buckets *)
  | Group_foreign of Of_types.group_id  (** device group with no intent *)

(** What one switch's device lacks or holds extra, against its intent. *)
type diff = {
  groups : group_diff list;
      (** intent groups by id with each difference in place, then
          foreign groups in device order *)
  missing : rule list;
      (** durable intents (no timeouts) absent from the device, in
          intent order *)
  expired : rule list;
      (** ephemeral intents (idle/hard timeouts) absent from the device:
          the switch expired them *)
  orphans : Of_msg.Stats.flow_stat list;
      (** device rules with an [owned] cookie and no intent, in device order *)
}

(** [diff ~rules ~groups ~flow_stats ~group_descs ~now ~grace ~owned]
    diffs one switch's intent rules and groups (as {!rules} and
    {!groups} order them) against its flow stats and group descs.
    Rules are matched by (table, priority, match), groups by id.  An
    intent younger than [grace] at [now], and a device rule whose
    duration is under [grace], may still be in flight and is skipped. *)
val diff :
  rules:rule list -> groups:group list -> flow_stats:Of_msg.Stats.flow_stat list ->
  group_descs:Of_msg.Stats.group_desc list -> now:float -> grace:float ->
  owned:Of_types.cookie list -> diff
