(** Scotch configuration knobs.

    Defaults follow the paper: R must stay below the loss-free rule
    insertion rate measured in §6.1 (200/s for the Pica8), rule idle
    timeouts are 10 s (§6.1), and thresholds implement the queue
    semantics of Fig. 7. *)

(** How Scotch detects large flows at the overlay vswitches (§5.3).

    [Exact_polling] is the paper's design — poll every vswitch's flow
    stats each [stats_poll_interval] and compare exact per-flow rates
    against [elephant_pkt_rate].  Accurate, but the reply carries one
    record per active vflow rule, so the control channel scales with
    flow count.

    [Sampled rate] replaces polling with NetFlow-style packet sampling
    at the vswitch datapath: each overlay packet is sampled with
    probability [rate] and a top-k sketch is drained per poll period.
    A flow is declared large when the lower confidence bound of its
    inverse-probability-scaled rate estimate clears
    [elephant_pkt_rate].  The reply carries at most k records —
    constant-size, independent of flow count. *)
type detection =
  | Exact_polling
  | Sampled of float

(** When the dataplane verifier runs.

    [Off] never verifies (the default — runs are bit-identical to a
    build without the verifier).  [Continuous] verifies incrementally
    on every rule, group or port change at the install chokepoint: only
    the header-space equivalence classes a delta can affect are
    re-walked, so each update costs microseconds and violations carry
    the virtual time at which they first appeared. *)
type verify =
  | Off
  | Continuous

(** How the elastic autoscaler decides.

    [Reactive] is the PR-5 behaviour — observed utilization against
    the high/low watermarks plus sustain counts and a cooldown; it
    only grows the pool {e after} a flash crowd has already queued
    Packet-Ins.  [Predictive] additionally feeds per-member Holt
    (level + trend) arrival-rate estimates into the analytic OFA
    queueing model ({!Scotch_model.Ofa_model}), forecasts each
    member's queue over the probe horizon, and triggers growth as soon
    as the model says blocking is otherwise inevitable — before the
    watermarks trip.  The reactive triggers stay armed underneath as a
    safety net, and drains keep the reactive pacing in both modes. *)
type scaling =
  | Reactive
  | Predictive

(** Multi-tenant control-plane isolation.  [tenants] fixes the tenant
    set (and, by list order, the per-tenant select-group ids);
    [tenant_of] attributes a new flow to its tenant from the first-hop
    switch and ingress port — the same attribution the §5.2
    ingress-differentiation already relies on, so spoofed source
    addresses cannot escape their tenant. *)
type tenancy = {
  tenants : Tenant.spec list;
  tenant_of : first_hop:int -> ingress_port:int -> Tenant.id;
}

(* The paper's values, which no experiment varies (documented in the
   .mli).  R = 80 keeps the switch under the 200 msg/s loss-free bound
   even through OFA housekeeping windows, since every served flow also
   costs a Packet-Out on the same channel. *)
let rule_rate = 80.0
let monitor_interval = 0.1
let min_active_duration = 5.0 (* guards against flapping *)
let drop_threshold = 500
let elephant_pkt_rate = 500.0
let telemetry_topk = 16
let vswitch_rule_idle = 30.0
let physical_rule_idle = 10.0
let pin_rule_idle = 30.0
let heartbeat_period = 1.0
let heartbeat_timeout = 3.0

type t = {
  activate_pin_rate : float;
      (** Packet-In rate (per switch) that triggers overlay activation. *)
  withdraw_flow_rate : float;
      (** Attributed new-flow rate below which the overlay is withdrawn
          for a switch (§5.5). *)
  overlay_threshold : int;
      (** ingress-queue depth beyond which new flows are routed over the
          overlay instead of waiting for physical setup *)
  ingress_differentiation : bool;
      (** per-ingress-port queues and round-robin (§5.2); [false]
          collapses to one FIFO per switch (the Fig. 11 baseline) *)
  stats_poll_interval : float;  (** vswitch flow-stats polling period *)
  migration_enabled : bool;     (** large-flow migration (§5.3) *)
  detection : detection;
      (** how large flows are found: exact polling (the paper, default)
          or sampled telemetry — see {!detection} *)
  path_load_threshold : float;
      (** maximum Packet-In rate allowed on every switch of a candidate
          physical path before migrating a flow onto it *)
  vswitches_per_switch : int;
      (** how many vswitches each congested switch load-balances over *)
  shed_policy : Sched.shed_policy;
      (** what to do with ingress submissions past the dropping
          threshold — [Drop_new] is the paper's behaviour *)
  ingress_deadline : float;
      (** seconds after which a queued Packet-In decision is stale and
          shed at serve time; [0.] disables expiry *)
  flow_group : (first_hop:int -> ingress_port:int -> Scotch_packet.Flow_key.t -> int) option;
      (** Optional flow-grouping override for the fair scheduler (§5.2:
          "we can classify the flows into different groups and enforce
          fair sharing of the SDN network across groups", e.g. one group
          per customer).  [None] keeps the paper's default example:
          one group per ingress port of the first-hop switch. *)
  verify : verify;
      (** dataplane verification mode — see {!verify}; [Off] keeps runs
          bit-identical to the unverified build *)
  tenancy : tenancy option;
      (** per-tenant budgets, select-group shares and blast-radius
          isolation — see {!tenancy}; [None] (the default) runs as one
          default tenant ({!Tenant.default}: share 1, no budgets) *)
  scaling : scaling;
      (** autoscaler decision mode — see {!scaling}; [Reactive] (the
          default) keeps the watermark-driven PR-5 loop bit-identical *)
}

let default =
  { activate_pin_rate = 100.0;
    withdraw_flow_rate = 50.0;
    overlay_threshold = 20;
    ingress_differentiation = true;
    stats_poll_interval = 1.0;
    migration_enabled = true;
    detection = Exact_polling;
    path_load_threshold = 100.0;
    vswitches_per_switch = 4;
    shed_policy = Sched.Drop_new;
    ingress_deadline = 0.0;
    flow_group = None;
    verify = Off;
    tenancy = None;
    scaling = Reactive }

(** Cookie values tagging Scotch-owned rules, so overlay (green) rules
    can be withdrawn wholesale and told apart from per-flow (red)
    rules — §5.4's two rule colors. *)
let cookie_green = 0x5C07C4EEL (* shared overlay rules *)

let cookie_red = 0x5C07C4EDL (* per-flow physical-path rules *)

let cookie_vflow = 0x5C07C4EFL (* per-flow rules at overlay vswitches *)

let cookie_miss = 0x5C07C4ECL (* table-miss rules installed at connect time *)
