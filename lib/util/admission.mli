(** Tenant-aware admission for a bounded control-path queue.

    The OFA's Packet-In queue and the controller's Fig. 7 ingress lanes
    are the same finite queue with the same admission rules: a
    per-tenant budget on queued slots, per-tenant submitted / queued /
    shed tallies, eviction that never crosses a tenant boundary, and
    serve-time expiry of items older than a deadline.  This module is
    the one implementation of those rules.  The owner of a queue keeps
    its capacity check, its eviction choice and its own counters; an
    untenanted queue is one tenant (id 0). *)

(** What a submission past a full queue does: refuse the newcomer
    ([Drop_new], the paper's tail drop and the default), evict the
    oldest item of its own tenant ([Drop_oldest]), or evict the oldest
    item of its own tenant's longest lane ([Priority_preserving], which
    on a single-queue owner is [Drop_oldest]). *)
type policy = Drop_new | Drop_oldest | Priority_preserving

(** A queued item: enqueue time, tenant, and the owner's payload. *)
type 'a item = { at : float; tenant : int; payload : 'a }

(** Per-tenant budgets and tallies. *)
type t

val create : unit -> t

(** Cap how many queued slots [tenant] may hold at once.  Raises
    [Invalid_argument] on budgets below 1. *)
val set_budget : t -> tenant:int -> int -> unit

(** Submissions attributed to [tenant] so far. *)
val submitted : t -> tenant:int -> int

(** Queued slots [tenant] holds right now. *)
val queued : t -> tenant:int -> int

(** Everything shed from [tenant]: refusals, evictions and expiries. *)
val shed : t -> tenant:int -> int

(** Count a submission by [tenant] and return whether it is within the
    tenant's budget.  Over budget, the owner refuses the newcomer
    ({!refuse}) without touching the shared queue. *)
val offer : t -> tenant:int -> bool

(** Charge a refused submission to [tenant]'s shed tally. *)
val refuse : t -> tenant:int -> unit

(** Enqueue [payload] for [tenant] at time [at]. *)
val push : t -> 'a item Queue.t -> at:float -> tenant:int -> 'a -> unit

(** Remove the oldest item of [tenant] from the queue and charge it to
    the tenant's shed tally; [None] when the tenant holds none there.
    O(1) when the head is the tenant's, otherwise a scan that keeps
    every other item in order. *)
val evict_oldest : t -> 'a item Queue.t -> tenant:int -> 'a item option

(** Pop the next item enqueued no more than [deadline] before [now]
    ([deadline = 0.] disables expiry).  Stale heads are shed on the
    way, each charged to its tenant and passed to [expire]. *)
val take :
  t -> 'a item Queue.t -> now:float -> deadline:float -> expire:('a item -> unit) ->
  'a item option
