(** Per-switch flow-management scheduler (Fig. 7 of the paper).

    Three priority levels served one item per [1/R] seconds: the
    {e admitted flow queue} (individual rule installs, highest), the
    {e large flow migration queue}, then {e ingress-port
    differentiation queues} (one FIFO per ingress port, round-robin).
    "Such a priority order causes small flows to be forwarded on
    physical paths only after all large flows are accommodated."

    Items are thunks supplied by the Scotch application; this module
    owns ordering, thresholds and pacing only.

    Tenancy (blast-radius isolation): the tenant set is fixed at
    {!create}, and an untenanted scheduler is one default tenant
    ({!Tenant.default}).  Submissions carry a tenant id.  Admission is
    {!Scotch_util.Admission}'s, shared with the OFA's Packet-In queue:
    per-tenant {e budgets} cap how many queued slots a tenant may hold
    — past its budget a tenant sheds only its own newcomers — and the
    shelter policies never evict across a tenant boundary.  This
    module keeps the lanes, the thresholds, the longest-lane choice
    and its counters.  {e Shares} reserve the serve ticks per tenant
    (non-work-conserving across tenants, so a quiet tenant's decision
    latency is independent of everyone else's backlog). *)

type counters = {
  mutable served_ingress : int;
  mutable diverted_overlay : int; (** submissions past the overlay threshold *)
  mutable dropped : int;          (** submissions refused past the dropping threshold *)
  mutable evicted : int;          (** queued items shed to make room for a newcomer *)
  mutable expired : int;          (** queued items shed at serve time past the deadline *)
  mutable budget_dropped : int;
      (** submissions refused by the submitter's own tenant budget —
          excluded from {!shed_total} on purpose *)
}

type t

(** [shed_policy] says what an ingress submission past the dropping
    threshold does: refuse the newcomer ([Drop_new], the paper's
    behaviour), evict the oldest item of the same
    port's lane ([Drop_oldest]), or evict the oldest item of the
    submitter's {e longest} lane so a quiet port's newcomer never pays
    for a noisy port's backlog ([Priority_preserving]).

    [differentiate = false] collapses to a single FIFO per tenant (all
    ports map to group 0).  [deadline] (seconds, [0.] = disabled)
    sheds queued ingress items at serve time once their decision would
    arrive more than [deadline] after enqueue.

    [tenants] ([[Tenant.default]] when untenanted) reserves the whole service
    — admitted installs, migrations and ingress alike — per tenant:
    serve ticks walk a fixed frame with [share] consecutive slots per
    tenant in list order, each tick serves only the slot tenant's work
    (in the paper's priority order), and an idle tenant's slot serves
    nobody else — capacity is conserved ([share_i] of every
    [sum shares] ticks each) and the partition is non-work-conserving
    across the tenant boundary by design.  Each tenant's
    [sched_budget] caps the ingress slots it may hold at once.  Raises
    [Invalid_argument] where {!Tenant.check_specs} does. *)
val create :
  shed_policy:Scotch_util.Admission.policy -> deadline:float -> tenants:Tenant.spec list ->
  Scotch_sim.Engine.t -> rate:float -> overlay_threshold:int -> drop_threshold:int ->
  differentiate:bool -> t

val counters : t -> counters

(** An ingress submission in two steps, so a caller builds the item
    only when it is queued.  [ingress_verdict] applies the Fig. 7
    thresholds and does all the counting and any eviction: [`Queued]
    (the caller must {!enqueue_ingress} the item before anything else
    touches the scheduler), [`Overlay] (route the flow over the Scotch
    overlay now) or [`Drop] (shared threshold, the tenant's own budget,
    or no same-tenant eviction victim). *)
val ingress_verdict : t -> port:int -> tenant:int -> [ `Queued | `Overlay | `Drop ]

(** Queue the item a [`Queued] verdict admitted: [run] when served,
    [shed] if it is evicted or expires first (never after [run]). *)
val enqueue_ingress : t -> port:int -> tenant:int -> shed:(unit -> unit) -> (unit -> unit) -> unit

(** The ingress lanes' per-tenant budgets and submitted / queued /
    shed tallies (shed: budget refusals, threshold refusals, evictions
    and expiries). *)
val admission : t -> Scotch_util.Admission.t

(** Enqueue a rule install for an admitted (physical-path) flow in
    [tenant]'s reserved queue. *)
val submit_admitted : t -> tenant:int -> (unit -> unit) -> unit

(** Enqueue a large-flow migration request (same tenant routing as
    {!submit_admitted}). *)
val submit_large : t -> tenant:int -> (unit -> unit) -> unit

(** Begin serving at rate R.  Idempotent. *)
val start : t -> unit

(** Pending rule installs in [tenant]'s admitted queue — the §5.3
    signal that a switch's control plane cannot absorb more
    physical-path setups, scoped to the capacity that tenant actually
    contends for. *)
val admitted_backlog_of_tenant : t -> tenant:int -> int

(** Total ingress backlog across ports. *)
val ingress_backlog : t -> int

val ingress_queue_length : t -> port:int -> int

(** Submissions shed by the shared thresholds: refused, evicted or
    expired.  Excludes [budget_dropped] — a tenant hitting its own
    budget is isolation working, not pool overload. *)
val shed_total : t -> int
