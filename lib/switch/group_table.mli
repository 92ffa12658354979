(** OpenFlow group table.  Scotch uses {e select} groups to
    load-balance new flows across vswitch tunnels (§5.1): one bucket
    per tunnel, bucket chosen by a hash of the flow id so all packets
    of a flow take the same tunnel. *)

open Scotch_openflow

type group = {
  group_id : Of_types.group_id;
  group_type : Of_msg.Group_mod.group_type;
  mutable buckets : Of_msg.Group_mod.bucket list;
}

type t

val create : unit -> t

(** Apply a Group_mod.  [Add]/[Modify] with an empty bucket list or a
    non-positive bucket weight are rejected (they would blackhole or
    skew every flow hashed onto the group), mirroring
    OFPGMFC_INVALID_GROUP on real switches. *)
val apply :
  t -> Of_msg.Group_mod.t ->
  (unit, [ `Group_exists | `Unknown_group | `Empty_buckets | `Non_positive_weight ]) result

val find : t -> Of_types.group_id -> group option

(** Buckets to execute for a flow of hash [flow_hash] in a group of
    this type and bucket list: [Select] hashes onto the weighted bucket
    list, [All] returns every bucket, [Indirect]/[Fast_failover] the
    first.  The verifier's symbolic walk calls it on captured groups. *)
val select :
  Of_msg.Group_mod.group_type -> Of_msg.Group_mod.bucket list -> flow_hash:int ->
  Of_msg.Group_mod.bucket list

(** [select_bucket g ~flow_hash] is {!select} over [g]'s type and buckets. *)
val select_bucket : group -> flow_hash:int -> Of_msg.Group_mod.bucket list

val size : t -> int
val iter : t -> (group -> unit) -> unit
