(** The Scotch controller application (§4–§5 of the paper): overlay
    activation and withdrawal, load-balanced redirection, ingress-port
    differentiation, overlay routing, large-flow migration, middlebox
    policy consistency and vswitch failure handling.

    One instance manages a set of {e physical} switches (each gets a
    Fig. 7 scheduler and a congestion monitor) and uses a pool of
    overlay vswitches.  Register {!app} with the controller {e before}
    any fallback routing app, then call {!start}.

    Two concerns live in their own modules, one instance each per
    Scotch instance: {!Detection} finds large flows (exact stats polling
    or sampled telemetry, §5.3) and {!Tenancy} attributes flows to
    tenants and slices the select groups among them. *)

open Scotch_switch
module C = Scotch_controller.Controller
module Reliable = Scotch_reliable.Reliable

type counters = {
  mutable flows_seen : int;
  mutable flows_overlay : int;       (** routed over the overlay *)
  mutable flows_physical : int;      (** physical path installed (incl. migrations) *)
  mutable flows_dropped : int;       (** shed past the dropping threshold *)
  mutable flows_unroutable : int;
  mutable elephants_detected : int;
  mutable migrations_completed : int;
  mutable activations : int;
  mutable withdrawals : int;
  mutable vswitch_failures : int;
  mutable quarantines : int;   (** circuit-breaker ejections *)
  mutable readmissions : int;  (** circuit-breaker readmits *)
  mutable promotions : int;    (** standby → active (autoscaler up) *)
  mutable demotions : int;     (** active → draining standby (autoscaler down) *)
}

type t

(** [create ?reliable ctrl overlay policy config] — with [?reliable],
    every Flow/Group-mod Scotch emits is recorded in the per-switch
    intent store and shipped as a barrier-acked transaction, and
    {!start} also launches the anti-entropy reconciler.  Without it
    (the default) the legacy fire-and-forget send path is used,
    bit-identical to previous behavior. *)
val create : ?reliable:Reliable.t -> C.t -> Overlay.t -> Policy.t -> Config.t -> t

(** The reliable layer this instance routes installs through, if any. *)
val reliable : t -> Reliable.t option
val counters : t -> counters
val db : t -> Flow_info_db.t
val config : t -> Config.t
val overlay : t -> Overlay.t
val ctrl : t -> C.t

(** Connect an overlay vswitch to the controller and install its
    table-miss rule (full packets to the controller, §4.2). *)
val register_vswitch : t -> Switch.t -> channel_latency:float -> C.sw

(** Hidden: the managed-switch record is internal. *)
type managed

(** Put a physical switch under Scotch management: controller
    connection, table-miss rule, Fig. 7 scheduler (started), congestion
    monitor state. *)
val manage_switch : t -> Switch.t -> channel_latency:float -> managed

(** Install the shared green rules of every registered policy segment;
    call after all segments are added and switches connected (§5.4). *)
val setup_policy_rules : t -> unit

(** Launch the periodic machinery: the congestion monitor (§4.2),
    vswitch stats polling for elephant detection (§5.3) and the
    heartbeat (§5.6). *)
val start : t -> unit

(** The controller application record. *)
val app : t -> C.app

(** Join a new vswitch to a {e running} overlay (§5.6): meshes it with
    the pool, builds uplink tunnels from every managed switch, installs
    its table-miss rule and — unless it joins as a backup — rebalances
    every active select group to start using it. *)
val add_vswitch_live : t -> Switch.t -> channel_latency:float -> as_backup:bool -> C.sw

(** Circuit breaker open: eject a sick vswitch from every select group
    without declaring it dead — existing flows keep draining through
    it, it just gets no new ones.  No-op for unknown dpids. *)
val quarantine_vswitch : t -> int -> unit

(** Circuit breaker closed again: readmit a recovered vswitch to the
    select groups. *)
val readmit_vswitch : t -> int -> unit

(** Autoscaler scale-up: move a standby (backup) vswitch to active
    duty and rebalance. *)
val promote_vswitch : t -> int -> unit

(** Autoscaler scale-down: demote an active vswitch to draining
    standby — no new flows, per-flow rules idle out, still available
    for future promotion or failover. *)
val demote_vswitch : t -> int -> unit

(** Data-path breaker open: remove a member from forwarding duty as if
    its heartbeat had died — marked dead in the overlay, replaced in
    every select group (backups cover affected flows).  Harsher than
    {!quarantine_vswitch}, which leaves forwarding intact.  No-op for
    unknown dpids. *)
val fail_vswitch : t -> int -> unit

(** Data-path breaker closed again: return a previously failed member
    to the forwarding pool (the §5.6 recovery path) and fire the
    recovery hooks ({!notify_recovery}). *)
val revive_vswitch : t -> int -> unit

(** Pool-manager handoff: [bench_standbys t true] holds backups in
    reserve — out of every select group until promoted (autoscaler
    mode); [false] (default) lets them share load like any other
    member.  Rebalances active groups either way. *)
val bench_standbys : t -> bool -> unit

(** The controller handle of a registered vswitch (pool management);
    raises [Not_found] for any other dpid, so a hit allocates
    nothing. *)
val vswitch_handle_of : t -> int -> C.sw

(** Is the overlay currently active (redirection installed) for this
    switch? *)
val is_active : t -> int -> bool

(** The Fig. 7 scheduler of a managed switch (observability/tests). *)
val sched_of : t -> int -> Sched.t option

(** Quantile of the admit→decision latency histogram ([None] until the
    first observation; the histogram only fills while obs is
    enabled). *)
val decision_latency_quantile : t -> float -> float option

(** Fault injection: suspend/resume the vswitch stats-polling loop (a
    controller-side monitoring outage — §5.3 elephant detection stops;
    under a sampled policy, telemetry polling stops through the same
    gate). *)
val set_stats_polling : t -> bool -> unit

(** Install a hook fired at every elephant detection with the flow's
    key — experiments use it to measure precision/recall and
    time-to-detect against ground truth.  The default is a no-op. *)
val set_on_elephant : t -> (Scotch_packet.Flow_key.t -> unit) -> unit

(** {!Detection.exact_channel} and {!Detection.sampled_channel}: the
    detection loop's control-channel cost as [(message units, wire
    bytes)]. *)
val exact_channel : t -> int * int
val sampled_channel : t -> int * int

(** Dpids of all managed physical switches, sorted (observability). *)
val managed_dpids : t -> int list

(** Dpids of all registered overlay vswitches, sorted
    (observability). *)
val vswitch_dpids : t -> int list

(** [admission_sum t ~sched ~ofa] sums [sched] over every managed
    switch's Fig. 7 scheduler plus [ofa] over every registered pool
    member's agent, provisioned members included — the admission
    layer's whole view of the net. *)
val admission_sum : t -> sched:(Sched.t -> int) -> ofa:(Ofa.t -> int) -> int

(** Register a callback to run after every vswitch repair (§5.6), where
    the dataplane was rebuilt behind the app's back — used by
    {!Scotch_verify.Hooks} to resync the continuous verifier. *)
val on_recovery : t -> (unit -> unit) -> unit

(** Fire the registered recovery hooks.  Exported so the fault
    injector, which repairs vswitches behind this module's back, can
    announce the repair. *)
val notify_recovery : t -> unit

(** Register a callback to run at the send chokepoint with every
    outgoing Flow/Group-mod batch, before dispatch — the verifier's
    view of installs on both the reliable and the legacy direct path.
    Cheap no-op when nothing is registered. *)
val on_install : t -> (C.sw -> Scotch_openflow.Of_msg.payload list -> unit) -> unit
