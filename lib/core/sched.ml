(** Per-switch flow-management scheduler (Fig. 7).

    Three priority levels, served one item per [1/R] seconds:
    + the {e admitted flow queue} — individual rule installs for flows
      (re)admitted to the physical network — highest priority;
    + the {e large flow migration queue};
    + the {e ingress-port differentiation queues} — one FIFO per ingress
      port, served round-robin — lowest priority.

    "Such a priority order causes small flows to be forwarded on
    physical paths only after all large flows are accommodated."

    Items are thunks supplied by the Scotch application; this module
    owns only ordering, thresholds and pacing.

    Beyond the paper's thresholds the ingress queues support typed
    {e shedding policies} for when the dropping threshold is reached
    ([Drop_new] keeps legacy behaviour) and an optional per-item
    {e deadline}: a queued Packet-In whose decision would land later
    than [deadline] seconds after enqueue is stale — the flow's first
    packets have long been overlay-forwarded or retransmitted — so it
    is shed at serve time instead of wasting a service slot.

    Tenancy: the tenant set is fixed at {!create}; an untenanted
    scheduler is one default tenant ({!Tenant.default}).  Each
    submission carries a tenant id.  Budgets, per-tenant tallies,
    same-tenant eviction and deadline expiry are
    {!Scotch_util.Admission}'s shared rules: a tenant with an admission
    {e budget} is refused (its own newcomer shed) once it holds that
    many queued slots, regardless of how empty the shared thresholds
    are.  The whole service — admitted installs, migrations and
    ingress alike — is partitioned by {e share}: serve ticks follow a
    fixed frame with each tenant holding slots in proportion to its
    share, each tick serves only the slot tenant's work, and a
    tenant's unused ticks idle rather than serve anyone else —
    deliberately non-work-conserving across the tenant boundary, so
    one tenant's backlog or install burst can never stretch another's
    decision latency.  Ingress lanes are tenant-pure, so the shelter
    policies ([Drop_oldest]/[Priority_preserving]) never evict across
    a tenant boundary. *)

module Admission = Scotch_util.Admission

type counters = {
  mutable served_ingress : int;
  mutable diverted_overlay : int; (* ingress submissions past the overlay threshold *)
  mutable dropped : int;          (* ingress submissions past the dropping threshold *)
  mutable evicted : int;          (* queued items shed to make room (Drop_oldest/Priority_preserving) *)
  mutable expired : int;          (* queued items shed at serve time past the deadline *)
  mutable budget_dropped : int;   (* submissions refused by the submitter's own tenant budget *)
}

(* an ingress item's payload: run when served, shed otherwise *)
type ingress = { run : unit -> unit; shed : unit -> unit }

type t = {
  engine : Scotch_sim.Engine.t;
  rate : float;
  overlay_threshold : int;
  drop_threshold : int;
  differentiate : bool;
  shed_policy : Admission.policy;
  deadline : float; (* 0. = disabled *)
  admitted : (int, (unit -> unit) Queue.t) Hashtbl.t; (* per tenant *)
  large : (int, (unit -> unit) Queue.t) Hashtbl.t;
  (* ingress queues keyed by (port, tenant): tenant-pure lanes kill
     cross-tenant head-of-line blocking inside a port's FIFO *)
  ingress : (int * int, ingress Admission.item Queue.t) Hashtbl.t;
  mutable rr_order : (int * int) list; (* (port, tenant), round-robin cursor at head *)
  mutable stop : (unit -> unit) option;
  frame : int array; (* reserved serve-tick frame, tenant per slot; never empty *)
  mutable frame_pos : int;
  admission : Admission.t;
  expire : ingress Admission.item -> unit;
  counters : counters;
}

let untenanted = [ Tenant.default ]

let create ?(shed_policy = Admission.Drop_new) ?(deadline = 0.0) ?(tenants = untenanted) engine
    ~rate ~overlay_threshold ~drop_threshold ~differentiate =
  if rate <= 0.0 then invalid_arg "Sched.create: rate must be positive";
  if deadline < 0.0 then invalid_arg "Sched.create: deadline must be >= 0";
  Tenant.check_specs tenants;
  let admission = Admission.create () in
  List.iter
    (fun (s : Tenant.spec) ->
      Option.iter (Admission.set_budget admission ~tenant:s.Tenant.id) s.Tenant.sched_budget)
    tenants;
  let counters =
    { served_ingress = 0; diverted_overlay = 0; dropped = 0; evicted = 0; expired = 0;
      budget_dropped = 0 }
  in
  { engine; rate; overlay_threshold; drop_threshold; differentiate; shed_policy; deadline;
    admitted = Hashtbl.create 4; large = Hashtbl.create 4; ingress = Hashtbl.create 8;
    rr_order = []; stop = None;
    (* [share] consecutive slots per tenant, in list order *)
    frame =
      Array.concat
        (List.map (fun (s : Tenant.spec) -> Array.make s.Tenant.share s.Tenant.id) tenants);
    frame_pos = 0; admission;
    expire =
      (fun item ->
        counters.expired <- counters.expired + 1;
        item.Admission.payload.shed ());
    counters }

let tenant_q tbl tenant =
  match Hashtbl.find_opt tbl tenant with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace tbl tenant q;
    q

let admission t = t.admission

let counters t = t.counters

(* Ingress lane for a submission: the port (collapsed unless
   differentiating), paired with the submitter's tenant so one
   tenant's backlog can never sit in front of another's items. *)
let ingress_queue t ~port ~tenant =
  let key = ((if t.differentiate then port else 0), tenant) in
  match Hashtbl.find_opt t.ingress key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.ingress key q;
    t.rr_order <- t.rr_order @ [ key ];
    q

(* The lane to steal a slot from under [Priority_preserving]: the
   submitter's own longest lane, ties broken by lowest (port, tenant)
   for determinism.  A newcomer on a quiet port then displaces the
   oldest item of its most backlogged lane rather than being refused
   outright — per-port fairness is preserved under overload, and
   eviction never crosses a tenant boundary. *)
let longest_ingress_of_tenant t ~tenant =
  Hashtbl.fold
    (fun ((_, lane) as key) q best ->
      let len = Queue.length q in
      if lane <> tenant || len = 0 then best
      else
        match best with
        | Some (_, _, blen) when blen > len -> best
        | Some (bkey, _, blen) when blen = len && bkey < key -> best
        | _ -> Some (key, q, len))
    t.ingress None

(* Shed the oldest item [tenant] holds in lane [q] (the lane head:
   lanes are tenant-pure). *)
let evict t q ~tenant =
  match Admission.evict_oldest t.admission q ~tenant with
  | Some victim ->
    t.counters.evicted <- t.counters.evicted + 1;
    victim.Admission.payload.shed ()
  | None -> ()

let refuse t ~tenant =
  t.counters.dropped <- t.counters.dropped + 1;
  Admission.refuse t.admission ~tenant;
  `Drop

(** [ingress_verdict t ~port ~tenant] applies the Fig. 7 thresholds
    to a submission whose item does not exist yet: [`Queued] (the
    caller must {!enqueue_ingress} it now), [`Overlay] (past the
    overlay threshold — caller must route the flow over the Scotch
    overlay) or [`Drop] (past the dropping threshold under [Drop_new],
    refused by the tenant's own budget, or no same-tenant eviction
    victim).  Under [Drop_oldest]/[Priority_preserving] a full queue
    shelters the newcomer by shedding a queued victim of its own tenant
    (its [shed] callback runs) and still answers [`Queued]. *)
let ingress_verdict t ~port ~tenant =
  if not (Admission.offer t.admission ~tenant) then begin
    (* the tenant's admission budget bit: shed its own newcomer without
       touching the shared thresholds or anyone else's queue slots *)
    t.counters.budget_dropped <- t.counters.budget_dropped + 1;
    Admission.refuse t.admission ~tenant;
    `Drop
  end
  else begin
    let q = ingress_queue t ~port ~tenant in
    let len = Queue.length q in
    if len >= t.drop_threshold then begin
      match t.shed_policy with
      | Admission.Drop_new -> refuse t ~tenant
      | Admission.Drop_oldest ->
        evict t q ~tenant;
        `Queued
      | Admission.Priority_preserving -> (
        match longest_ingress_of_tenant t ~tenant with
        | Some (_, vq, _) ->
          evict t vq ~tenant;
          `Queued
        | None -> refuse t ~tenant)
    end
    else if len >= t.overlay_threshold then begin
      t.counters.diverted_overlay <- t.counters.diverted_overlay + 1;
      `Overlay
    end
    else `Queued
  end

(** [enqueue_ingress t ~port ~tenant ~shed run] queues the item a
    [`Queued] verdict admitted: [run] when served, [shed] if it is
    evicted or expires first. *)
let enqueue_ingress t ~port ~tenant ~shed run =
  Admission.push t.admission (ingress_queue t ~port ~tenant)
    ~at:(Scotch_sim.Engine.now t.engine) ~tenant { run; shed }

(** Enqueue a rule install for an admitted (physical-path) flow in
    [tenant]'s own reserved queue. *)
let submit_admitted t ?(tenant = Tenant.default_id) item =
  Queue.push item (tenant_q t.admitted tenant)

(** Enqueue a large-flow migration request (same tenant routing as
    {!submit_admitted}). *)
let submit_large t ?(tenant = Tenant.default_id) item =
  Queue.push item (tenant_q t.large tenant)

(* Round-robin restricted to [tenant]'s own lanes, skipping empty
   ones.  Foreign lanes are skipped outright (without disturbing their
   round-robin position), so a foreign backlog can never block this
   tenant's slot. *)
let next_ingress_of_tenant t ~tenant =
  let rec go n order =
    if n = 0 then None
    else
      match order with
      | [] -> None
      | ((_, lane) as key) :: rest -> (
        let order' = rest @ [ key ] in
        if lane <> tenant then go (n - 1) order'
        else
          match Hashtbl.find_opt t.ingress key with
          | Some q when not (Queue.is_empty q) -> (
            t.rr_order <- order';
            match
              Admission.take t.admission q ~now:(Scotch_sim.Engine.now t.engine)
                ~deadline:t.deadline ~expire:t.expire
            with
            | Some item -> Some item
            | None -> go (n - 1) order')
          | _ -> go (n - 1) order')
  in
  go (List.length t.rr_order) t.rr_order

(* This tick belongs to one tenant and serves only that tenant's
   work, in the paper's priority order.  The frame advances whether or
   not the tenant has anything queued, so a quiet tenant's slot
   positions never depend on anyone's load. *)
let serve_one t =
  let tenant = t.frame.(t.frame_pos) in
  t.frame_pos <- (t.frame_pos + 1) mod Array.length t.frame;
  match Queue.take_opt (tenant_q t.admitted tenant) with
  | Some item -> item ()
  | None -> (
    match Queue.take_opt (tenant_q t.large tenant) with
    | Some item -> item ()
    | None -> (
      match next_ingress_of_tenant t ~tenant with
      | Some item ->
        t.counters.served_ingress <- t.counters.served_ingress + 1;
        item.Admission.payload.run ()
      | None -> ()))

(** [start t] begins serving at rate R.  Idempotent. *)
let start t =
  match t.stop with
  | Some _ -> ()
  | None ->
    let stop = Scotch_sim.Engine.every t.engine ~period:(1.0 /. t.rate) (fun () -> serve_one t) in
    t.stop <- Some stop

(** Pending rule installs in [tenant]'s reserved admitted queue — the
    §5.3 signal that a switch's control plane cannot absorb more
    physical-path setups, scoped to the capacity the tenant actually
    contends for, so one tenant's install burst cannot make another's
    physical path look loaded. *)
let admitted_backlog_of_tenant t ~tenant = Queue.length (tenant_q t.admitted tenant)

(** Total backlog across ingress queues (observability/tests). *)
let ingress_backlog t =
  Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.ingress 0

(** Backlog on [port] across every tenant lane. *)
let ingress_queue_length t ~port =
  let port = if t.differentiate then port else 0 in
  Hashtbl.fold (fun (p, _) q acc -> if p = port then acc + Queue.length q else acc) t.ingress 0

(** Submissions shed by the {e shared} thresholds: refused, evicted or
    expired.  Deliberately excludes [budget_dropped] — a tenant hitting
    its own admission budget is isolation working as designed, not
    pool overload, so the autoscaler must not read it as such. *)
let shed_total t = t.counters.dropped + t.counters.evicted + t.counters.expired
