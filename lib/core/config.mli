(** Scotch configuration knobs.  Defaults follow the paper: R stays
    below the loss-free rule insertion rate measured in §6.1, rule
    timeouts are 10 s, and thresholds implement the Fig. 7 queue
    semantics. *)

(** How Scotch finds large flows at the overlay vswitches (§5.3).

    [Exact_polling] (the paper's design, and the default) polls every
    vswitch's flow stats each [stats_poll_interval]; the reply carries
    one record per active vflow rule, so the control channel scales
    with flow count.  [Sampled rate] replaces polling with NetFlow-style
    packet sampling at the vswitch datapath and constant-size top-k
    telemetry reports; a flow is declared large when the lower
    confidence bound of its scaled rate estimate clears
    [elephant_pkt_rate]. *)
type detection =
  | Exact_polling
  | Sampled of float

(** When the dataplane verifier runs.  [Off] (the default) never
    verifies and keeps runs bit-identical to an unverified build;
    [Continuous] re-verifies incrementally on every rule/group/port
    change at the install chokepoint, re-walking only the header-space
    equivalence classes the delta can affect, and resyncs against a
    whole-network snapshot after each vswitch repair (the post-recovery
    resync) and at run end. *)
type verify =
  | Off
  | Continuous

(** Multi-tenant control-plane isolation: the tenant set (list order
    fixes per-tenant select-group ids) and the attribution function
    mapping a new flow's first-hop switch and ingress port to its
    tenant.  Port-based attribution means spoofed source addresses
    cannot escape their tenant. *)
type tenancy = {
  tenants : Tenant.spec list;
  tenant_of : first_hop:int -> ingress_port:int -> Tenant.id;
}

(** {1 Fixed knobs}

    The paper's values, which no experiment varies. *)

(** R: per-switch physical rule-install service rate (Fig. 7), 80/s.
    Every served flow also costs a Packet-Out on the same channel, so
    2R must not exceed the loss-free insertion rate (§6.1). *)
val rule_rate : float

val monitor_interval : float (** congestion monitor period, seconds *)

val min_active_duration : float
(** minimum time on the overlay before withdrawal is considered *)

val drop_threshold : int (** ingress-queue depth beyond which Packet-Ins are dropped *)

val elephant_pkt_rate : float (** packets/second above which a flow is an elephant *)

val telemetry_topk : int (** sketch capacity: candidate flows per telemetry report *)

val vswitch_rule_idle : float (** idle timeout of per-flow vswitch rules *)

val physical_rule_idle : float (** idle timeout of per-flow physical (red) rules *)

val pin_rule_idle : float (** idle timeout of §5.5 withdrawal pin rules *)

val heartbeat_period : float (** vswitch Echo period (§5.6) *)

val heartbeat_timeout : float (** declare a vswitch dead after this *)

(** {1 Per-run knobs} *)

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
          collapses to one FIFO per switch *)
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
  shed_policy : Scotch_util.Admission.policy;
      (** what to do with ingress submissions past the dropping
          threshold — [Drop_new] is the paper's behaviour *)
  ingress_deadline : float;
      (** seconds after which a queued Packet-In decision is stale and
          shed at serve time; [0.] disables expiry *)
  verify : verify;
      (** dataplane verification mode — see {!verify} *)
  tenancy : tenancy option;
      (** per-tenant budgets, select-group shares and blast-radius
          isolation — see {!tenancy}; [None] (the default) runs as one
          default tenant ({!Tenant.default}: share 1, no budgets) *)
}

val default : t

(** Cookie tagging Scotch's shared overlay (green) rules (§5.4). *)
val cookie_green : Scotch_openflow.Of_types.cookie

(** Cookie tagging per-flow physical-path (red) rules. *)
val cookie_red : Scotch_openflow.Of_types.cookie

(** Cookie tagging per-flow rules at overlay vswitches. *)
val cookie_vflow : Scotch_openflow.Of_types.cookie

(** Cookie tagging the table-miss rules installed at connect time, so
    the reconciler can tell its own rules from foreign ones. *)
val cookie_miss : Scotch_openflow.Of_types.cookie
