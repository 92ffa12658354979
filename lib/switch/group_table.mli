(** OpenFlow group table of {e select} groups, the only group type
    Scotch uses: they load-balance new flows across vswitch tunnels
    (§5.1), one bucket per tunnel, bucket chosen by a hash of the flow
    id so all packets of a flow take the same tunnel. *)

open Scotch_openflow

(** A group entry, as a group-stats reply describes it.  Immutable: a
    [Modify] replaces the entry, so a snapshot can share it. *)
type group = Of_msg.Stats.group_desc = {
  group_id : Of_types.group_id;
  buckets : Of_msg.Group_mod.bucket list;
}

type t

val create : unit -> t

(** Apply a Group_mod.  [Modify] replaces the group's buckets, as
    OFPGC_MODIFY does.  [Add]/[Modify] with an empty bucket list are
    rejected (they would blackhole every flow hashed onto the group),
    mirroring OFPGMFC_INVALID_GROUP on real switches. *)
val apply :
  t -> Of_msg.Group_mod.t -> (unit, [ `Group_exists | `Unknown_group | `Empty_buckets ]) result

val find : t -> Of_types.group_id -> group option

(** The bucket a flow of hash [flow_hash] (non-negative) executes in
    [g]: bucket [flow_hash mod n] of its [n] equal buckets.  [g] is a
    group {!apply} accepted, so [n > 0]. *)
val select : group -> flow_hash:int -> Of_msg.Group_mod.bucket

val size : t -> int

(** Every group, sorted by id. *)
val groups : t -> group list
