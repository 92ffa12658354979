(** The Scotch controller application (§4–§5): overlay activation and
    withdrawal, load-balanced redirection, ingress-port differentiation,
    overlay routing, large-flow migration, middlebox policy consistency
    and vswitch failure handling.

    One instance manages a set of {e physical} switches (each gets a
    Fig. 7 scheduler and a congestion monitor) and uses a pool of
    {e overlay} vswitches.  Registered as a {!Scotch_controller.Controller}
    application, it consumes every Packet-In relevant to Scotch. *)

open Scotch_openflow
open Scotch_switch
open Scotch_packet
open Scotch_util
module C = Scotch_controller.Controller
module Reliable = Scotch_reliable.Reliable

let group_id = 1
let redirect_priority = 1
let flow_priority = 10

type managed = {
  msw : C.sw;
  sched : Sched.t;
  attributed : Stats.Rate_meter.t; (* new-flow rate attributed to this switch *)
  mutable active : bool;           (* overlay redirection installed *)
  mutable activated_at : float;
  mutable assigned : (int * int) list; (* (vswitch dpid, uplink tunnel id) in the group *)
  mutable groups_installed : int list; (* select-group ids already added at the switch *)
}

type counters = {
  mutable flows_seen : int;
  mutable flows_overlay : int;       (* routed over the overlay *)
  mutable flows_physical : int;      (* physical path installed (incl. migrations) *)
  mutable flows_dropped : int;       (* shed past the dropping threshold *)
  mutable flows_unroutable : int;
  mutable elephants_detected : int;
  mutable migrations_completed : int;
  mutable activations : int;
  mutable withdrawals : int;
  mutable vswitch_failures : int;
  mutable quarantines : int;   (* circuit-breaker ejections *)
  mutable readmissions : int;  (* circuit-breaker readmits *)
  mutable promotions : int;    (* standby -> active (autoscaler up) *)
  mutable demotions : int;     (* active -> standby/draining (autoscaler down) *)
}

type t = {
  ctrl : C.t;
  overlay : Overlay.t;
  policy : Policy.t;
  config : Config.t;
  tenants : Tenant.spec list;
      (* the configured tenants, or [[Tenant.default]] when untenanted;
         list index i owns select group [group_id + i] *)
  db : Flow_info_db.t;
  managed : (int, managed) Hashtbl.t;
  vswitch_handles : (int, C.sw) Hashtbl.t;
  counters : counters;
  mutable stats_polling : bool;
      (* fault injection: a stats-polling outage suspends elephant
         detection (the §5.3 loop) without touching anything else *)
  mutable recovery_hooks : (unit -> unit) list;
      (* fired after every vswitch repair (§5.6), where
         {!Scotch_verify.Hooks} resyncs the continuous verifier *)
  mutable install_hooks : (C.sw -> Of_msg.payload list -> unit) list;
      (* fired at the send chokepoint, before dispatch — the verifier's
         view of every install leaving the controller, on both the
         reliable and the legacy direct path *)
  reliable : Reliable.t option;
      (* when present, every Flow/Group-mod goes through the intent
         store and barrier-acked transactions, and [start] launches the
         anti-entropy reconciler.  [None] (the default) keeps the
         legacy fire-and-forget path bit-identical. *)
  rebalances_c : Scotch_obs.Registry.counter;
  pool_adds_c : Scotch_obs.Registry.counter;
  decision_h : Scotch_obs.Registry.histogram;
      (* flow admit → routing decision complete (virtual s); obs-gated *)
  samplers : (int, Scotch_telemetry.Sampler.t) Hashtbl.t;
      (* per-vswitch packet samplers, present only under a sampled
         detection policy — Exact_polling never creates one *)
  duty : Scotch_telemetry.Assignment.t;
      (* Floware-style ledger of which uplinks each pool member samples *)
  mutable on_elephant : Flow_key.t -> unit;
      (* detection hook (experiments record ground-truth hits); the
         default no-op keeps Exact_polling runs bit-identical *)
  mutable ch_exact_msgs : int;
      (* control-channel ledger of the detection loop: message units
         (one per request, one per reply plus one per carried record)
         and encoded wire bytes, split by detection mode *)
  mutable ch_exact_bytes : int;
  mutable ch_sampled_msgs : int;
  mutable ch_sampled_bytes : int;
  decision_tenant_h : (int, Scotch_obs.Registry.histogram) Hashtbl.t;
      (* per-tenant admit → decision histograms; populated only when
         tenants are configured *)
}

let create ?reliable ctrl overlay policy config =
  let module O = Scotch_obs.Obs in
  let tenants =
    match config.Config.tenancy with None -> [ Tenant.default ] | Some tn -> tn.Config.tenants
  in
  Tenant.check_specs tenants;
  let t =
    { ctrl; overlay; policy; config; tenants; db = Flow_info_db.create ();
      managed = Hashtbl.create 16; vswitch_handles = Hashtbl.create 16;
      counters =
        { flows_seen = 0; flows_overlay = 0; flows_physical = 0; flows_dropped = 0;
          flows_unroutable = 0; elephants_detected = 0; migrations_completed = 0;
          activations = 0; withdrawals = 0; vswitch_failures = 0; quarantines = 0;
          readmissions = 0; promotions = 0; demotions = 0 };
      stats_polling = true; recovery_hooks = []; install_hooks = []; reliable;
      rebalances_c =
        O.counter ~help:"Select-group rebalances after pool changes"
          "scotch_core_group_rebalances_total";
      pool_adds_c =
        O.counter ~help:"vswitches joined to a running overlay"
          "scotch_core_pool_additions_total";
      decision_h =
        O.histogram ~help:"Flow admit to routing decision (virtual seconds)" ~lo:0.0 ~hi:0.5
          ~bins:50 "scotch_core_decision_latency_seconds";
      samplers = Hashtbl.create 16; duty = Scotch_telemetry.Assignment.create ();
      on_elephant = (fun _ -> ());
      ch_exact_msgs = 0; ch_exact_bytes = 0; ch_sampled_msgs = 0; ch_sampled_bytes = 0;
      decision_tenant_h = Hashtbl.create 4 }
  in
  (* re-express the Scotch ledger on the registry (polled at snapshot) *)
  let c = t.counters in
  O.counter_fn ~help:"New flows admitted" "scotch_core_flows_seen_total"
    (fun () -> c.flows_seen);
  O.counter_fn ~help:"Flows routed over the overlay" "scotch_core_flows_overlay_total"
    (fun () -> c.flows_overlay);
  O.counter_fn ~help:"Flows installed on a physical path" "scotch_core_flows_physical_total"
    (fun () -> c.flows_physical);
  O.counter_fn ~help:"Flows shed past the dropping threshold" "scotch_core_flows_dropped_total"
    (fun () -> c.flows_dropped);
  O.counter_fn ~help:"Flows with no viable route" "scotch_core_flows_unroutable_total"
    (fun () -> c.flows_unroutable);
  O.counter_fn ~help:"Elephant flows detected by stats polling"
    "scotch_core_elephants_detected_total" (fun () -> c.elephants_detected);
  O.counter_fn ~help:"Elephant migrations completed" "scotch_core_migrations_completed_total"
    (fun () -> c.migrations_completed);
  O.counter_fn ~help:"Overlay redirection activations (miss-rule flips on)"
    "scotch_core_activations_total" (fun () -> c.activations);
  O.counter_fn ~help:"Overlay redirection withdrawals (miss-rule flips off)"
    "scotch_core_withdrawals_total" (fun () -> c.withdrawals);
  O.counter_fn ~help:"vswitch failures handled" "scotch_core_vswitch_failures_total"
    (fun () -> c.vswitch_failures);
  O.counter_fn ~help:"Circuit-breaker ejections from the vswitch pool"
    "scotch_core_vswitch_quarantines_total" (fun () -> c.quarantines);
  O.counter_fn ~help:"Circuit-breaker readmissions to the vswitch pool"
    "scotch_core_vswitch_readmissions_total" (fun () -> c.readmissions);
  O.counter_fn ~help:"Standby vswitches promoted to active duty"
    "scotch_core_vswitch_promotions_total" (fun () -> c.promotions);
  O.counter_fn ~help:"Active vswitches demoted to draining standby"
    "scotch_core_vswitch_demotions_total" (fun () -> c.demotions);
  O.counter_fn ~help:"Elephant-detection channel cost (message units)"
    ~labels:[ ("mode", "exact") ] "scotch_core_stats_channel_msgs_total"
    (fun () -> t.ch_exact_msgs);
  O.counter_fn ~help:"Elephant-detection channel cost (message units)"
    ~labels:[ ("mode", "sampled") ] "scotch_core_stats_channel_msgs_total"
    (fun () -> t.ch_sampled_msgs);
  O.counter_fn ~help:"Elephant-detection channel cost (wire bytes)"
    ~labels:[ ("mode", "exact") ] "scotch_core_stats_channel_bytes_total"
    (fun () -> t.ch_exact_bytes);
  O.counter_fn ~help:"Elephant-detection channel cost (wire bytes)"
    ~labels:[ ("mode", "sampled") ] "scotch_core_stats_channel_bytes_total"
    (fun () -> t.ch_sampled_bytes);
  (* Per-tenant views of admissions, sheds, pin load and decision
     latency.  Registered only for configured tenants: untenanted runs
     export exactly the metric set they always did. *)
  if config.Config.tenancy <> None then
    List.iter
      (fun (s : Tenant.spec) ->
        let labels = [ ("tenant", s.Tenant.name) ] in
        let tenant = s.Tenant.id in
        Hashtbl.replace t.decision_tenant_h tenant
          (O.histogram ~help:"Flow admit to routing decision (virtual seconds)" ~labels ~lo:0.0
             ~hi:0.5 ~bins:50 "scotch_core_tenant_decision_latency_seconds");
        O.counter_fn ~help:"New-flow requests submitted per tenant" ~labels
          "scotch_core_tenant_admissions_total" (fun () ->
            Hashtbl.fold (fun _ m acc -> acc + Sched.tenant_submitted m.sched ~tenant) t.managed 0);
        O.counter_fn
          ~help:"Flows shed per tenant (budget refusals, capacity drops, evictions, expiries)"
          ~labels "scotch_core_tenant_sheds_total" (fun () ->
            Hashtbl.fold (fun _ m acc -> acc + Sched.tenant_shed m.sched ~tenant) t.managed 0
            + Hashtbl.fold
                (fun _ (sw : C.sw) acc ->
                  acc + Ofa.pin_tenant_shed (Switch.ofa sw.C.device) ~tenant)
                t.vswitch_handles 0);
        O.counter_fn ~help:"Packet-In jobs attributed per tenant at the overlay pool" ~labels
          "scotch_core_tenant_pins_total" (fun () ->
            Hashtbl.fold
              (fun _ (sw : C.sw) acc ->
                acc + Ofa.pin_tenant_submitted (Switch.ofa sw.C.device) ~tenant)
              t.vswitch_handles 0))
      tenants;
  t

let counters t = t.counters
let db t = t.db
let config t = t.config
let overlay t = t.overlay
let ctrl t = t.ctrl

let engine t = C.engine t.ctrl
let now t = Scotch_sim.Engine.now (engine t)

(** {1 Tenancy (blast-radius isolation)}

    An untenanted run is the one tenant [Tenant.default] at index 0:
    it owns [group_id] and the whole assignment, so the messages below
    are those of the single-tenant design.  Only the forks that change
    what is emitted ask whether tenants are configured. *)

let tenant_name t tenant =
  let rec go = function
    | [] -> string_of_int tenant
    | (s : Tenant.spec) :: rest -> if s.Tenant.id = tenant then s.Tenant.name else go rest
  in
  go t.tenants

(* The tenant at index [i] of the list owns select group
   [group_id + i]; an unknown tenant falls back to the first group. *)
let group_of_tenant t tenant =
  let rec go i = function
    | [] -> group_id
    | (s : Tenant.spec) :: rest -> if s.Tenant.id = tenant then group_id + i else go (i + 1) rest
  in
  go 0 t.tenants

let tenant_of_flow t ~first_hop ~ingress_port =
  match t.config.Config.tenancy with
  | None -> Tenant.default_id
  | Some tn -> tn.Config.tenant_of ~first_hop ~ingress_port

(* Disjoint contiguous slices of the (rotated) assignment, apportioned
   by share with largest remainder; a tenant whose slice would be empty
   (pool smaller than the tenant count) shares the whole assignment
   rather than losing overlay service. *)
let tenant_slices t assigned =
  let shares = List.map (fun (s : Tenant.spec) -> (s.Tenant.id, s.Tenant.share)) t.tenants in
  let counts = Tenant.apportion ~slots:(List.length assigned) ~shares in
  let rec split n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: tl ->
        let a, b = split (n - 1) tl in
        (x :: a, b)
  in
  let rec go acc remaining = function
    | [] -> List.rev acc
    | (id, n) :: more ->
      let sl, rest = split n remaining in
      let sl = if sl = [] then assigned else sl in
      go ((id, sl) :: acc) rest more
  in
  go [] assigned counts

let slice_of_tenant t assigned tenant =
  match List.assoc_opt tenant (tenant_slices t assigned) with
  | Some slice -> slice
  | None -> assigned

(* Routing-decision span: flow admit ([e.created]) to the moment the
   flow's fate is settled; one per decision outcome.  With tenants
   configured the span carries a tenant arg and also lands in the
   tenant's own histogram — untenanted spans are unchanged. *)
let decision_span t (e : Flow_info_db.entry) outcome =
  if Scotch_obs.Obs.is_enabled () then begin
    let dur = now t -. e.Flow_info_db.created in
    Scotch_obs.Registry.observe t.decision_h dur;
    (* pool dimension: the active vswitch count the decision ran
       against, so latency can be sliced by pool size offline *)
    let pool =
      ("pool", string_of_int (List.length (Overlay.active_vswitches t.overlay)))
    in
    let args =
      match t.config.Config.tenancy with
      | None -> [ ("outcome", outcome); pool ]
      | Some _ ->
        (match Hashtbl.find_opt t.decision_tenant_h e.Flow_info_db.tenant with
        | Some h -> Scotch_obs.Registry.observe h dur
        | None -> ());
        [ ("outcome", outcome); ("tenant", tenant_name t e.Flow_info_db.tenant); pool ]
    in
    Scotch_obs.Obs.span ~name:"scotch.decision" ~cat:"core" ~ts:e.Flow_info_db.created ~dur
      ~tid:e.Flow_info_db.first_hop ~args
  end

(* A flow with no viable route: count it, close its entry and its
   decision span. *)
let unroutable t (e : Flow_info_db.entry) =
  t.counters.flows_unroutable <- t.counters.flows_unroutable + 1;
  Flow_info_db.set_kind t.db e Flow_info_db.Dropped;
  decision_span t e "unroutable"

let tunnel_out tid =
  Of_action.Output (Of_types.Port_no.Physical (Scotch_topo.Topology.tunnel_port_of_id tid))

let managed_of t dpid = Hashtbl.find_opt t.managed dpid

(** [on_recovery t f] registers [f] to run after every vswitch repair —
    used by the verification hooks; cheap no-op when nothing is
    registered. *)
let on_recovery t f = t.recovery_hooks <- f :: t.recovery_hooks

(** [notify_recovery t] fires the registered recovery hooks.  Exported
    so the fault injector (which repairs vswitches behind this module's
    back) can announce the repair. *)
let notify_recovery t = List.iter (fun f -> f ()) t.recovery_hooks

(** {1 The send path}

    Every Flow/Group-mod leaves through {!send_batch}.  With no reliable
    layer it collapses to the legacy direct sends (same messages, same
    order — unimpaired runs stay bit-identical); with one, intents are
    recorded and the batch ships as a barrier-acked transaction. *)

let reliable t = t.reliable

(** [on_install t f] registers [f] to run at the send chokepoint with
    every outgoing Flow/Group-mod batch, before dispatch — the
    verifier's view of installs on both send paths.  Cheap no-op when
    nothing is registered. *)
let on_install t f = t.install_hooks <- f :: t.install_hooks

let notify_install t sw payloads =
  match t.install_hooks with
  | [] -> ()
  | hooks -> List.iter (fun f -> f sw payloads) hooks

(* A direct recursion rather than [List.iter (C.send ctrl sw)], whose
   partial application would allocate a closure on every install. *)
let rec send_each ctrl sw = function
  | [] -> ()
  | p :: rest ->
    C.send ctrl sw p;
    send_each ctrl sw rest

let send_batch t (sw : C.sw) payloads =
  notify_install t sw payloads;
  match t.reliable with
  | None -> send_each t.ctrl sw payloads
  | Some r ->
    Reliable.register_switch r sw;
    Reliable.transaction r sw payloads

let send_fm t sw fm = send_batch t sw [ Of_msg.Flow_mod fm ]

let install t sw ?(table_id = 0) ?(priority = 1) ?(idle_timeout = 0.0) ?(hard_timeout = 0.0)
    ?(cookie = Of_types.cookie_none) ~match_ ~instructions () =
  send_fm t sw
    (Of_msg.Flow_mod.add ~table_id ~priority ~idle_timeout ~hard_timeout ~cookie ~match_
       ~instructions ())

let uninstall t sw ?(table_id = 0) ?priority ~match_ () =
  send_fm t sw
    { (Of_msg.Flow_mod.delete ~table_id ~match_ ()) with
      Of_msg.Flow_mod.priority = Option.value priority ~default:0 }

(** {1 Sampled telemetry (§5.3 alternative detection)} *)

(* Sampler coin streams are seeded from this constant and the vswitch
   dpid, so same-seed runs replay identical sample sets. *)
let telemetry_seed = 0x7E1E

(* Recompute the Floware duty ledger and push it into the samplers:
   each active pool member samples exactly the uplink tunnels that
   terminate at it, so every overlay packet is sampled once pool-wide
   and duty shares track the select-group spread.  No-op under
   Exact_polling. *)
let refresh_sampling_duty t =
  match t.config.Config.detection with
  | Config.Exact_polling -> ()
  | Config.Sampled _ ->
    let active =
      List.map (fun v -> Switch.dpid v.Overlay.vsw) (Overlay.active_vswitches t.overlay)
    in
    Scotch_telemetry.Assignment.refresh t.duty ~uplinks:(Overlay.all_uplinks t.overlay) ~active;
    Hashtbl.iter
      (fun vdpid s ->
        match Scotch_telemetry.Assignment.duty_tunnels t.duty vdpid with
        | [] -> Scotch_telemetry.Sampler.set_enabled s false
        | tids ->
          Scotch_telemetry.Sampler.set_enabled s true;
          Scotch_telemetry.Sampler.set_duty_uplinks s tids)
      t.samplers

(* Under a sampled policy, give the vswitch a datapath sampler; it
   starts disabled and earns duty at the next ledger refresh. *)
let attach_sampler t dev =
  match t.config.Config.detection with
  | Config.Exact_polling -> ()
  | Config.Sampled rate ->
    let dpid = Switch.dpid dev in
    let s =
      Scotch_telemetry.Sampler.create ~topk:Config.telemetry_topk
        ~seed:telemetry_seed ~dpid ~rate ()
    in
    Scotch_telemetry.Sampler.set_enabled s false;
    Switch.set_sampler dev (Some s);
    Hashtbl.replace t.samplers dpid s;
    refresh_sampling_duty t

(* Control-channel ledger of the detection loop: one unit per request,
   one per reply plus one per carried record, and the encoded wire size
   of each message — the §5.3 cost the sampled policy is built to cut. *)
let account t ~sampled ~units payload =
  let bytes = Of_wire.size (Of_msg.make ~xid:0 payload) in
  if sampled then begin
    t.ch_sampled_msgs <- t.ch_sampled_msgs + units;
    t.ch_sampled_bytes <- t.ch_sampled_bytes + bytes
  end
  else begin
    t.ch_exact_msgs <- t.ch_exact_msgs + units;
    t.ch_exact_bytes <- t.ch_exact_bytes + bytes
  end

(** {1 Registration} *)

(* Each tenant's admission budget on an OFA pin queue. *)
let set_pin_budgets t ofa =
  List.iter
    (fun (s : Tenant.spec) ->
      Option.iter
        (fun b -> Ofa.set_pin_budget ofa ~tenant:s.Tenant.id (Some b))
        s.Tenant.pin_budget)
    t.tenants

(** [register_vswitch t dev ~channel_latency] connects an overlay
    vswitch to the controller and installs its table-miss rule (full
    packets to the controller, §4.2). *)
let register_vswitch t dev ~channel_latency =
  let sw = C.connect t.ctrl dev ~latency:channel_latency in
  Hashtbl.replace t.vswitch_handles (Switch.dpid dev) sw;
  attach_sampler t dev;
  let ofa = Switch.ofa dev in
  (match t.config.Config.tenancy with
  | None -> ()
  | Some tn ->
    (* Pin jobs at a pool member arrive over uplink tunnels; recover
       the origin switch from the tunnel and the ingress port from the
       outer MPLS tag pushed by the redirect, then attribute exactly as
       at the edge.  Mesh-repair arrivals (no known origin) stay on the
       default tenant. *)
    Ofa.set_pin_tenant_classifier ofa
      (Some
         (fun (j : Ofa.pin_job) ->
           match j.Ofa.tunnel_id with
           | Some tid -> (
             match Overlay.origin_of_tunnel t.overlay tid with
             | Some origin ->
               tn.Config.tenant_of ~first_hop:origin
                 ~ingress_port:
                   (Option.value (Packet.outer_mpls_label j.Ofa.packet) ~default:0)
             | None -> Tenant.default_id)
           | None -> Tenant.default_id)));
  set_pin_budgets t ofa;
  install t sw ~table_id:0 ~priority:0 ~cookie:Config.cookie_miss ~match_:Of_match.wildcard
    ~instructions:Of_action.to_controller ();
  sw

(** [manage_switch t dev ~channel_latency] puts a physical switch under
    Scotch management: controller connection, table-miss rule, Fig. 7
    scheduler (started), congestion monitor state. *)
let manage_switch t dev ~channel_latency =
  let sw = C.connect t.ctrl dev ~latency:channel_latency in
  let cfg = t.config in
  let sched =
    Sched.create (engine t) ~shed_policy:cfg.Config.shed_policy
      ~deadline:cfg.Config.ingress_deadline ~tenants:t.tenants ~rate:Config.rule_rate
      ~overlay_threshold:cfg.Config.overlay_threshold ~drop_threshold:Config.drop_threshold
      ~differentiate:cfg.Config.ingress_differentiation
  in
  Sched.start sched;
  let ofa = Switch.ofa dev in
  (match cfg.Config.tenancy with
  | None -> ()
  | Some tn ->
    (* Direct Packet-Ins at the physical edge are attributed by their
       in_port — spoofed sources cannot escape their tenant. *)
    let dpid = Switch.dpid dev in
    Ofa.set_pin_tenant_classifier ofa
      (Some
         (fun (j : Ofa.pin_job) ->
           tn.Config.tenant_of ~first_hop:dpid ~ingress_port:j.Ofa.in_port)));
  set_pin_budgets t ofa;
  let m =
    { msw = sw; sched; attributed = Stats.Rate_meter.create ~window:1.0; active = false;
      activated_at = 0.0; assigned = []; groups_installed = [] }
  in
  Hashtbl.replace t.managed (Switch.dpid dev) m;
  install t sw ~table_id:0 ~priority:0 ~cookie:Config.cookie_miss ~match_:Of_match.wildcard
    ~instructions:Of_action.to_controller ();
  m

let handle_of t dpid =
  match Hashtbl.find_opt t.vswitch_handles dpid with
  | Some sw -> Some sw
  | None -> (
    match managed_of t dpid with Some m -> Some m.msw | None -> C.switch t.ctrl dpid)

let send_flow_mod t dpid fm =
  match handle_of t dpid with Some sw -> send_fm t sw fm | None -> ()

(** {1 Activation (§4.2, §5.1)} *)

(** Deterministic vswitch assignment: up to [vswitches_per_switch] alive
    uplinks, rotated by dpid so different switches spread over the
    pool. *)
let select_assignment t dpid =
  let ups =
    Overlay.alive_uplinks_of t.overlay dpid |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let n = List.length ups in
  if n = 0 then []
  else begin
    let k = Stdlib.min t.config.Config.vswitches_per_switch n in
    let rot = dpid mod n in
    let arr = Array.of_list ups in
    List.init k (fun i -> arr.((rot + i) mod n))
  end

let buckets_of_assignment assigned =
  List.map (fun (_vdpid, tid) -> Of_msg.Group_mod.bucket [ tunnel_out tid ]) assigned

(* An empty assignment would produce an empty-bucket Group_mod, which
   the switch rejects (OFPGMFC_INVALID_GROUP); keep the previous group
   contents until a non-empty assignment replaces them. *)
let group_mod_of m ~gid ~buckets =
  if buckets = [] then None
  else begin
    let gm =
      if List.mem gid m.groups_installed then Of_msg.Group_mod.modify_select ~group_id:gid ~buckets
      else begin
        m.groups_installed <- m.groups_installed @ [ gid ];
        Of_msg.Group_mod.add_select ~group_id:gid ~buckets
      end
    in
    Some gm
  end

(* One select group per tenant over its apportioned slice — weight-1
   buckets, so the datapath's [hash mod slice_len] pick is exactly
   mirrored by {!predicted_entry}. *)
let group_mods_for t m =
  List.filter_map
    (fun (tenant, slice) ->
      group_mod_of m ~gid:(group_of_tenant t tenant) ~buckets:(buckets_of_assignment slice))
    (tenant_slices t m.assigned)

let install_group t m =
  List.iter (fun gm -> send_batch t m.msw [ Of_msg.Group_mod gm ]) (group_mods_for t m)

(* Instructions that send a flow from ingress [port] onto the overlay.
   Untenanted, table 1's single rule balances everything into the
   shared group.  With tenants configured that shared balancer cannot
   discriminate tenants, so the rule jumps straight into [tenant]'s
   own select group instead. *)
let overlay_instructions t ~port ~tenant =
  match t.config.Config.tenancy with
  | None -> [ Of_action.Apply_actions [ Of_action.Push_mpls port ]; Of_action.Goto_table 1 ]
  | Some _ ->
    [ Of_action.Apply_actions
        [ Of_action.Push_mpls port; Of_action.Group (group_of_tenant t tenant) ] ]

(** [activate t m] turns on overlay redirection at a congested switch:
    the two-table pipeline of §5.2 — table 0 tags the ingress port with
    an inner MPLS label and continues to table 1, whose single rule
    load-balances into the select group over vswitch tunnels. *)
let activate t m =
  let dpid = m.msw.C.dpid in
  m.assigned <- select_assignment t dpid;
  if m.assigned <> [] then begin
    m.active <- true;
    m.activated_at <- now t;
    t.counters.activations <- t.counters.activations + 1;
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:"scotch.activate" ~cat:"core" ~ts:(now t) ~tid:dpid
        ~args:[ ("vswitches", string_of_int (List.length m.assigned)) ];
    (* the whole pipeline (select groups, table-1 balancer, per-port
       redirects) ships as one batch: under the reliable layer it is a
       single barrier-acked transaction, otherwise it degenerates to the
       same message sequence as before *)
    let gms = group_mods_for t m in
    let table1 =
      if t.config.Config.tenancy <> None then []
      else
        [ Of_msg.Flow_mod.add ~table_id:1 ~priority:0 ~cookie:Config.cookie_green
            ~match_:Of_match.wildcard
            ~instructions:[ Of_action.Apply_actions [ Of_action.Group group_id ] ]
            () ]
    in
    let redirects =
      List.map
        (fun port ->
          Of_msg.Flow_mod.add ~table_id:0 ~priority:redirect_priority
            ~cookie:Config.cookie_green
            ~match_:(Of_match.with_in_port port Of_match.wildcard)
            ~instructions:
              (overlay_instructions t ~port
                 ~tenant:(tenant_of_flow t ~first_hop:dpid ~ingress_port:port))
            ())
        (Switch.normal_ports m.msw.C.device)
    in
    send_batch t m.msw
      (List.map (fun g -> Of_msg.Group_mod g) gms
      @ List.map (fun fm -> Of_msg.Flow_mod fm) (table1 @ redirects))
  end

(** {1 Withdrawal (§5.5)} *)

let withdraw t m =
  m.active <- false;
  t.counters.withdrawals <- t.counters.withdrawals + 1;
  if Scotch_obs.Obs.is_enabled () then
    Scotch_obs.Obs.instant ~name:"scotch.withdraw" ~cat:"core" ~ts:(now t) ~tid:m.msw.C.dpid
      ~args:[];
  (* Step 1: pin flows currently on the overlay so they stay there,
     paced through the admitted queue. *)
  let dpid = m.msw.C.dpid in
  let horizon = 2.0 *. t.config.Config.stats_poll_interval in
  let pins = Flow_info_db.overlay_flows_of_switch t.db ~horizon ~now:(now t) dpid in
  let remaining = ref (List.length pins) in
  let remove_redirects () =
    (* Step 2: remove the default redirection rules; new flows go back
       to the OFA. *)
    List.iter
      (fun port ->
        uninstall t m.msw ~table_id:0 ~priority:redirect_priority
          ~match_:(Of_match.with_in_port port Of_match.wildcard)
          ())
      (Switch.normal_ports m.msw.C.device)
  in
  if pins = [] then remove_redirects ()
  else
    List.iter
      (fun (e : Flow_info_db.entry) ->
        Sched.submit_admitted m.sched ~tenant:e.Flow_info_db.tenant (fun () ->
            install t m.msw ~table_id:0 ~priority:Policy.green_priority
              ~cookie:Config.cookie_green ~idle_timeout:Config.pin_rule_idle
              ~match_:(Of_match.exact_flow e.Flow_info_db.key)
              ~instructions:
                (overlay_instructions t ~port:e.Flow_info_db.ingress_port
                   ~tenant:e.Flow_info_db.tenant)
              ();
            decr remaining;
            if !remaining = 0 then remove_redirects ()))
      pins

(** {1 Overlay routing (§4.1–4.2)} *)

let vswitch_handle t vdpid = Hashtbl.find_opt t.vswitch_handles vdpid

(** Entry vswitch the switch's select group will hash this flow to —
    used when the first packet arrived directly (pre-activation) so the
    controller's choice agrees with the data plane's.  The hash runs
    over the flow's tenant slice, mirroring the per-tenant select group
    the datapath uses. *)
let predicted_entry t m (e : Flow_info_db.entry) =
  let assigned = if m.assigned <> [] then m.assigned else select_assignment t m.msw.C.dpid in
  match assigned with
  | [] -> None
  | _ ->
    let pool = slice_of_tenant t assigned e.Flow_info_db.tenant in
    let n = List.length pool in
    let vdpid, _ = List.nth pool (Flow_key.hash e.Flow_info_db.key mod n) in
    Some vdpid

(* The exact-match rule steering [key] at an overlay vswitch. *)
let install_vflow t sw key actions =
  install t sw ~table_id:0 ~priority:flow_priority ~idle_timeout:Config.vswitch_rule_idle
    ~cookie:Config.cookie_vflow ~match_:(Of_match.exact_flow key)
    ~instructions:[ Of_action.Apply_actions actions ]
    ()

(** [route_overlay t e pkt ~entry] installs the overlay path for flow
    [e]: a rule at the entry vswitch (pop the ingress label, forward
    into the mesh / policy segment / delivery tunnel) and, if distinct,
    a rule at the vswitch covering the destination; then Packet-Outs the
    first packet at the entry vswitch. *)
let route_overlay t (e : Flow_info_db.entry) pkt ~entry =
  let key = e.Flow_info_db.key in
  let dst_ip = key.Flow_key.ip_dst in
  match Overlay.cover_of_ip t.overlay dst_ip with
  | None -> unroutable t e
  | Some cover -> (
    let entry_tunnel =
      match Policy.classify t.policy key with
      | Some seg ->
        (* policy flow: into the segment; green rules at S_U/S_D carry it
           through the middlebox and on to the cover vswitch *)
        Policy.entry_tunnel seg ~vswitch_dpid:entry
      | None ->
        if entry = cover then Overlay.delivery_tunnel t.overlay ~vswitch_dpid:entry dst_ip
        else Overlay.mesh_tunnel t.overlay ~src:entry ~dst:cover
    in
    let entry_actions =
      Option.map (fun tid -> [ Of_action.Pop_mpls; tunnel_out tid ]) entry_tunnel
    in
    match (entry_actions, vswitch_handle t entry) with
    | None, _ | _, None -> unroutable t e
    | Some actions, Some entry_sw ->
      install_vflow t entry_sw key actions;
      (if cover <> entry then
         match (Overlay.delivery_tunnel t.overlay ~vswitch_dpid:cover dst_ip,
                vswitch_handle t cover) with
         | Some tid, Some cover_sw -> install_vflow t cover_sw key [ tunnel_out tid ]
         | _ -> ());
      C.packet_out t.ctrl entry_sw ~actions pkt;
      (match e.Flow_info_db.kind with
      | Flow_info_db.Overlay _ -> () (* reinstall after expiry/failure *)
      | _ ->
        t.counters.flows_overlay <- t.counters.flows_overlay + 1;
        Flow_info_db.set_kind t.db e (Flow_info_db.Overlay { entry_vswitch = entry });
        decision_span t e "overlay"))

(** {1 Physical-path setup and migration (§5.3)} *)

(** Install per-flow (red) rules for [e] along its physical path.  Rules
    for every switch are paced through that switch's admitted queue,
    destination-first; the first-hop rule is enqueued only after every
    downstream rule has been sent, "so that packets are forwarded on the
    new path only after all switches on the path are ready".
    [first_packet] (if any) is Packet-Out at the first hop once its rule
    is sent. *)
let install_physical t (e : Flow_info_db.entry) ~first_packet ~on_complete =
  let key = e.Flow_info_db.key in
  let dst_ip = key.Flow_key.ip_dst in
  let first_hop = e.Flow_info_db.first_hop in
  let mk_rule dpid out_port =
    ( dpid,
      Of_msg.Flow_mod.add ~table_id:0 ~priority:Policy.red_priority
        ~idle_timeout:Config.physical_rule_idle ~cookie:Config.cookie_red
        ~match_:(Of_match.exact_flow key)
        ~instructions:(Of_action.output (Of_types.Port_no.Physical out_port))
        () )
  in
  let rules =
    match Policy.classify t.policy key with
    | Some seg -> (
      match Policy.physical_path_through t.policy seg ~first_hop ~dst_ip with
      | None -> None
      | Some (plain_hops, exit_port) ->
        Some
          (List.map (fun (d, p) -> mk_rule d p) plain_hops
          @ Policy.red_rules seg ~key ~exit_port))
    | None -> (
      match Scotch_topo.Topology.route_to_host (C.topo t.ctrl) ~src:first_hop ~dst_ip with
      | None -> None
      | Some hops -> Some (List.map (fun (d, p) -> mk_rule d p) hops))
  in
  match rules with
  | None -> unroutable t e
  | Some rules ->
    let first_hop_rules, downstream =
      List.partition (fun (d, _) -> d = first_hop) rules
    in
    let finish () =
      List.iter (fun (d, fm) -> send_flow_mod t d fm) first_hop_rules;
      (match (first_packet, handle_of t first_hop) with
      | Some pkt, Some sw ->
        let out_action =
          List.filter_map
            (fun ((_ : int), (fm : Of_msg.Flow_mod.t)) ->
              match Of_action.actions_of_instructions fm.Of_msg.Flow_mod.instructions with
              | (Of_action.Output _ as a) :: _ -> Some a
              | _ -> None)
            first_hop_rules
        in
        (* the buffered packet may still carry the inner ingress label
           it picked up on its way to a vswitch: strip it before
           re-injecting on the physical path *)
        if out_action <> [] then
          C.packet_out t.ctrl sw ~actions:[ Of_action.Pop_mpls; List.hd out_action ] pkt
      | _ -> ());
      Flow_info_db.set_kind t.db e Flow_info_db.Physical;
      t.counters.flows_physical <- t.counters.flows_physical + 1;
      decision_span t e "physical";
      on_complete ()
    in
    if downstream = [] then finish ()
    else begin
      (* destination-first: reverse order of the path *)
      let remaining = ref (List.length downstream) in
      List.iter
        (fun (d, fm) ->
          let send () =
            send_flow_mod t d fm;
            decr remaining;
            if !remaining = 0 then finish ()
          in
          match managed_of t d with
          | Some dm -> Sched.submit_admitted dm.sched ~tenant:e.Flow_info_db.tenant send
          | None -> send ())
        (List.rev downstream)
    end

(** Migration of one detected elephant (served from the large-flow
    queue): recheck control-path load along the candidate path, then
    install destination-first. *)
let do_migration ?(detected_at = 0.0) t (e : Flow_info_db.entry) =
  let dst_ip = e.Flow_info_db.key.Flow_key.ip_dst in
  let path_ok =
    match Scotch_topo.Topology.route_to_host (C.topo t.ctrl) ~src:e.Flow_info_db.first_hop ~dst_ip with
    | None -> false
    | Some hops ->
      List.for_all
        (fun (d, _) ->
          match handle_of t d with
          | None -> false
          | Some sw ->
            C.pin_rate t.ctrl sw <= t.config.Config.path_load_threshold
            && (match managed_of t d with
               | None -> true
               | Some dm ->
                 let backlog =
                   Sched.admitted_backlog_of_tenant dm.sched ~tenant:e.Flow_info_db.tenant
                 in
                 float_of_int backlog <= Config.rule_rate))
        hops
  in
  if not path_ok then e.Flow_info_db.migrating <- false (* retry at next poll *)
  else
    install_physical t e ~first_packet:None ~on_complete:(fun () ->
        e.Flow_info_db.migrating <- false;
        t.counters.migrations_completed <- t.counters.migrations_completed + 1;
        if Scotch_obs.Obs.is_enabled () then
          Scotch_obs.Obs.span ~name:"scotch.migration" ~cat:"core" ~ts:detected_at
            ~dur:(now t -. detected_at) ~tid:e.Flow_info_db.first_hop ~args:[])

(** Elephant detection: poll per-flow packet counts at the vswitches and
    compare against the configured rate threshold. *)
let flow_key_of_match (m : Of_match.t) =
  match (m.Of_match.ip_src, m.Of_match.ip_dst, m.Of_match.ip_proto) with
  | Some src, Some dst, Some proto ->
    Some
      (Flow_key.make
         ~ip_src:(Ipv4_addr.of_int src.Of_match.value)
         ~ip_dst:(Ipv4_addr.of_int dst.Of_match.value)
         ~proto
         ?l4_src:m.Of_match.l4_src ?l4_dst:m.Of_match.l4_dst ())
  | _ -> None

(* Common tail of every detection path: count, trace, fire the
   ground-truth hook, and queue the migration through the first hop's
   large-flow queue.  The caller has already set [e.migrating]. *)
let launch_migration t ~vdpid (e : Flow_info_db.entry) =
  t.counters.elephants_detected <- t.counters.elephants_detected + 1;
  let detected_at =
    if Scotch_obs.Obs.is_enabled () then begin
      Scotch_obs.Obs.instant ~name:"scotch.elephant_detected" ~cat:"core" ~ts:(now t)
        ~tid:vdpid ~args:[];
      now t
    end
    else 0.0
  in
  t.on_elephant e.Flow_info_db.key;
  match managed_of t e.Flow_info_db.first_hop with
  | Some m ->
    Sched.submit_large m.sched ~tenant:e.Flow_info_db.tenant (fun () ->
        do_migration ~detected_at t e)
  | None -> e.Flow_info_db.migrating <- false

(* The §5.3 trigger: an overlay flow whose measured [rate] clears the
   elephant threshold starts migrating, once. *)
let migrate_if_large t ~vdpid (e : Flow_info_db.entry) rate =
  if
    t.config.Config.migration_enabled && rate > Config.elephant_pkt_rate
    && not e.Flow_info_db.migrating
  then begin
    e.Flow_info_db.migrating <- true;
    launch_migration t ~vdpid e
  end

let poll_vswitch_stats t vdpid =
  match vswitch_handle t vdpid with
  | None -> ()
  | Some sw ->
    let req = { Of_msg.Stats.table_id = 0xFF; match_ = Of_match.wildcard } in
    account t ~sampled:false ~units:1 (Of_msg.Flow_stats_request req);
    C.request t.ctrl sw (Of_msg.Flow_stats_request req)
      (function
        | Of_msg.Flow_stats_reply stats ->
          account t ~sampled:false ~units:(1 + List.length stats)
            (Of_msg.Flow_stats_reply stats);
          List.iter
            (fun (st : Of_msg.Stats.flow_stat) ->
              if st.Of_msg.Stats.cookie = Config.cookie_vflow then
                match flow_key_of_match st.Of_msg.Stats.match_ with
                | None -> ()
                | Some key -> (
                  match Flow_info_db.find t.db key with
                  | Some e -> (
                    match e.Flow_info_db.kind with
                    | Flow_info_db.Overlay { entry_vswitch } when entry_vswitch = vdpid ->
                      let rate =
                        Flow_info_db.observe_count t.db e
                          ~packets:st.Of_msg.Stats.packet_count ~now:(now t)
                          ~interval:t.config.Config.stats_poll_interval
                      in
                      migrate_if_large t ~vdpid e rate
                    | _ -> ())
                  | None -> ()))
            stats
        | _ -> ())

(* Sampled detection (§5.3 via the telemetry subsystem): drain each
   duty vswitch's sampler window and rank the carried top-k records by
   the lower confidence bound of their inverse-probability-scaled rate
   estimate.  Constant-size replies replace the per-vflow stats dump. *)
let poll_vswitch_telemetry t vdpid =
  match vswitch_handle t vdpid with
  | None -> ()
  | Some sw ->
    account t ~sampled:true ~units:1 Of_msg.Telemetry_request;
    C.request t.ctrl sw Of_msg.Telemetry_request
      (function
        | Of_msg.Telemetry_reply tr ->
          account t ~sampled:true ~units:(1 + List.length tr.Of_msg.Telemetry.records)
            (Of_msg.Telemetry_reply tr);
          let rate = tr.Of_msg.Telemetry.rate in
          let window = tr.Of_msg.Telemetry.window in
          if rate > 0.0 && window > 0.0 then
            List.iter
              (fun (r : Of_msg.Telemetry.record) ->
                match Flow_info_db.find t.db r.Of_msg.Telemetry.key with
                | None -> ()
                | Some e -> (
                  match e.Flow_info_db.kind with
                  | Flow_info_db.Overlay { entry_vswitch } when entry_vswitch = vdpid ->
                    let c = r.Of_msg.Telemetry.sampled in
                    let lower = Scotch_telemetry.Estimator.rate_lower ~rate ~window c in
                    (* fold the scaled size estimate into the ledger so
                       withdrawal pinning still sees flow sizes *)
                    let est =
                      e.Flow_info_db.last_packet_count
                      + int_of_float (Float.round (Scotch_telemetry.Estimator.scaled ~rate c))
                    in
                    let (_ : float) =
                      Flow_info_db.observe_count t.db e ~packets:est ~now:(now t)
                        ~interval:window
                    in
                    migrate_if_large t ~vdpid e lower
                  | _ -> ()))
              tr.Of_msg.Telemetry.records
        | _ -> ())

(** Control-plane load check for a candidate physical path (§5.3: the
    controller "checks the message rate of all switches on the path to
    make sure their control plane is not overloaded").  Two signals per
    hop: the Packet-In rate and the admitted-queue backlog (more than a
    second of pending installs means the switch cannot absorb another
    path).  The backlog signal is scoped to the flow's own tenant —
    another tenant's install burst must not push this tenant's flows
    off their physical paths. *)
let path_overloaded t ~first_hop ~dst_ip ~tenant =
  match Scotch_topo.Topology.route_to_host (C.topo t.ctrl) ~src:first_hop ~dst_ip with
  | None -> false (* unroutable is handled downstream *)
  | Some hops ->
    List.exists
      (fun (d, _) ->
        match managed_of t d with
        | None -> false
        | Some dm ->
          let backlog = Sched.admitted_backlog_of_tenant dm.sched ~tenant in
          C.pin_rate t.ctrl dm.msw > t.config.Config.path_load_threshold
          || float_of_int backlog > Config.rule_rate)
      hops

(** {1 Packet-In handling} *)

let serve_new_flow t m (e : Flow_info_db.entry) pkt ~entry_vswitch =
  (* fair-sharing group: per ingress port by default, or the operator's
     classifier (e.g. per customer, §5.2) *)
  let group =
    match t.config.Config.flow_group with
    | None -> e.Flow_info_db.ingress_port
    | Some f ->
      f ~first_hop:e.Flow_info_db.first_hop ~ingress_port:e.Flow_info_db.ingress_port
        e.Flow_info_db.key
  in
  let route_via_overlay () =
    let entry =
      match entry_vswitch with
      | Some v -> Some v
      | None -> predicted_entry t m e
    in
    if not m.active then activate t m;
    match entry with
    | None -> unroutable t e
    | Some entry -> route_overlay t e pkt ~entry
  in
  let shed () =
    (* the flow never got its decision: refused outright, evicted to
       make room, or expired past the ingress deadline *)
    match e.Flow_info_db.kind with
    | Flow_info_db.Pending ->
      t.counters.flows_dropped <- t.counters.flows_dropped + 1;
      Flow_info_db.set_kind t.db e Flow_info_db.Dropped;
      decision_span t e "shed"
    | Flow_info_db.Overlay _ | Flow_info_db.Physical | Flow_info_db.Dropped -> ()
  in
  let submit =
    Sched.submit_ingress m.sched ~port:group ~tenant:e.Flow_info_db.tenant ~shed (fun () ->
        match e.Flow_info_db.kind with
        | Flow_info_db.Pending ->
          (* §5.3's path-load check applies to any physical setup: when a
             switch downstream cannot absorb the rules, the flow stays on
             the overlay instead of waiting forever. *)
          if
            path_overloaded t ~first_hop:e.Flow_info_db.first_hop
              ~dst_ip:e.Flow_info_db.key.Flow_key.ip_dst ~tenant:e.Flow_info_db.tenant
          then
            route_via_overlay ()
          else install_physical t e ~first_packet:(Some pkt) ~on_complete:(fun () -> ())
        | Flow_info_db.Overlay _ | Flow_info_db.Physical | Flow_info_db.Dropped -> ())
  in
  match submit with
  | `Queued -> ()
  | `Overlay ->
    (* beyond the control-plane capacity of the physical network: route
       over the Scotch overlay (activating redirection if needed) *)
    route_via_overlay ()
  | `Drop -> shed ()

let handle_packet_in t (sw : C.sw) (pi : Of_msg.Packet_in.t) =
  let pkt = pi.Of_msg.Packet_in.packet in
  (* Attribute the Packet-In to its origin physical switch. *)
  let origin =
    match pi.Of_msg.Packet_in.tunnel_id with
    | Some tid -> (
      match Overlay.origin_of_tunnel t.overlay tid with
      | Some origin_dpid ->
        (* §5.2: physical switch id from the tunnel id, ingress port from
           the inner MPLS label *)
        let ingress = Option.value (Packet.outer_mpls_label pkt) ~default:0 in
        Some (origin_dpid, ingress, Some sw.C.dpid)
      | None -> None (* a mesh-tunnel arrival: handled below as a repair *))
    | None -> (
      match managed_of t sw.C.dpid with
      | Some _ -> Some (sw.C.dpid, pi.Of_msg.Packet_in.in_port, None)
      | None -> None)
  in
  match origin with
  | None ->
    (* A packet-in raised by a vswitch for a packet that arrived over a
       mesh tunnel: the delivery rule at the covering vswitch lost a
       race with the data packet (or expired).  Repair: reinstall the
       delivery rule and forward the packet. *)
    if Hashtbl.mem t.vswitch_handles sw.C.dpid && pi.Of_msg.Packet_in.tunnel_id <> None then begin
      let key = Packet.flow_key pkt in
      match Overlay.delivery_tunnel t.overlay ~vswitch_dpid:sw.C.dpid key.Flow_key.ip_dst with
      | None -> false
      | Some tid ->
        let actions = [ tunnel_out tid ] in
        install_vflow t sw key actions;
        C.packet_out t.ctrl sw ~actions pkt;
        true
    end
    else false
  | Some (origin_dpid, ingress_port, entry_vswitch) -> (
    match managed_of t origin_dpid with
    | None -> false
    | Some m ->
      Stats.Rate_meter.tick m.attributed ~now:(now t);
      let key = Packet.flow_key pkt in
      (match Flow_info_db.find t.db key with
      | Some e -> (
        match e.Flow_info_db.kind with
        | Flow_info_db.Pending -> () (* duplicate while queued *)
        | Flow_info_db.Overlay _ -> (
          (* vswitch rule expired, or the flow rehashed after a vswitch
             failure: (re)install the overlay path *)
          match entry_vswitch with
          | Some entry -> route_overlay t e pkt ~entry
          | None -> (
            match predicted_entry t m e with
            | Some entry -> route_overlay t e pkt ~entry
            | None -> ()))
        | Flow_info_db.Physical | Flow_info_db.Dropped ->
          (* red rule expired or flow retrying after shed: treat as new.
             Tenancy is decided once, at the flow's original ingress — a
             downstream switch re-seeing the flow (its packet racing the
             path install) must not re-attribute it to whoever owns the
             inter-switch port. *)
          let tenant = e.Flow_info_db.tenant in
          Flow_info_db.remove t.db key;
          t.counters.flows_seen <- t.counters.flows_seen + 1;
          let e =
            Flow_info_db.admit t.db ~tenant ~key ~first_hop:origin_dpid ~ingress_port
              ~now:(now t) ()
          in
          serve_new_flow t m e pkt ~entry_vswitch)
      | None ->
        t.counters.flows_seen <- t.counters.flows_seen + 1;
        let tenant = tenant_of_flow t ~first_hop:origin_dpid ~ingress_port in
        let e =
          Flow_info_db.admit t.db ~tenant ~key ~first_hop:origin_dpid ~ingress_port ~now:(now t)
            ()
        in
        serve_new_flow t m e pkt ~entry_vswitch);
      true)

(** {1 vswitch failure (§5.6)} *)

let rebalance_groups t =
  Scotch_obs.Registry.incr t.rebalances_c;
  if Scotch_obs.Obs.is_enabled () then
    Scotch_obs.Obs.instant ~name:"scotch.rebalance" ~cat:"core" ~ts:(now t) ~tid:0 ~args:[];
  Hashtbl.iter
    (fun dpid m ->
      if m.active then begin
        let fresh = select_assignment t dpid in
        if fresh <> m.assigned && fresh <> [] then begin
          m.assigned <- fresh;
          install_group t m
        end
      end)
    t.managed;
  (* monitoring duty follows select-group membership *)
  refresh_sampling_duty t

(** [fail_vswitch t dpid] removes a pool member from forwarding duty as
    if its heartbeat had died: mark it dead in the overlay and replace
    it in every select group (the backup treats affected flows as new
    flows).  Entry point for the elastic layer's data-path breaker. *)
let fail_vswitch t dpid =
  if Hashtbl.mem t.vswitch_handles dpid then begin
    t.counters.vswitch_failures <- t.counters.vswitch_failures + 1;
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:"scotch.vswitch_dead" ~cat:"core" ~ts:(now t) ~tid:dpid
        ~args:[];
    ignore (Overlay.mark_dead t.overlay dpid);
    rebalance_groups t
  end

(** [revive_vswitch t dpid] returns a previously failed member to the
    forwarding pool (the §5.6 recovery path) — the data-path breaker's
    half-open probe succeeded. *)
let revive_vswitch t dpid =
  if Hashtbl.mem t.vswitch_handles dpid then begin
    Overlay.mark_recovered t.overlay dpid;
    rebalance_groups t;
    notify_recovery t
  end

let handle_switch_dead t (sw : C.sw) = fail_vswitch t sw.C.dpid

(** {1 Policy green rules} *)

(** Install the shared green rules of every registered policy segment.
    Call after all segments are added and switches connected. *)
let setup_policy_rules t =
  List.iter
    (fun seg ->
      List.iter (fun (dpid, fm) -> send_flow_mod t dpid fm) (Policy.green_rules t.policy t.overlay seg))
    (Policy.segments t.policy)

(** {1 The monitor loop and app registration} *)

let monitor_tick t =
  Hashtbl.iter
    (fun _ m ->
      let direct_rate = C.pin_rate t.ctrl m.msw in
      let attr_rate = Stats.Rate_meter.rate m.attributed ~now:(now t) in
      if (not m.active) && direct_rate > t.config.Config.activate_pin_rate then activate t m
      else if
        m.active
        && now t -. m.activated_at > Config.min_active_duration
        && attr_rate < t.config.Config.withdraw_flow_rate
        && direct_rate < t.config.Config.activate_pin_rate
      then withdraw t m)
    t.managed

(** [start t] launches the periodic machinery: the congestion monitor
    (§4.2), vswitch stats polling for elephant detection (§5.3) and the
    heartbeat (§5.6). *)
let start t =
  let cfg = t.config in
  refresh_sampling_duty t;
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every (engine t) ~period:Config.monitor_interval (fun () ->
        monitor_tick t)
  in
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every (engine t) ~period:cfg.Config.stats_poll_interval (fun () ->
        if t.stats_polling then
          (* a Stats_outage fault gates both detection styles here *)
          Overlay.iter_vswitches t.overlay (fun v ->
              if v.Overlay.alive then
                match cfg.Config.detection with
                | Config.Exact_polling -> poll_vswitch_stats t (Switch.dpid v.Overlay.vsw)
                | Config.Sampled _ ->
                  let vdpid = Switch.dpid v.Overlay.vsw in
                  if Scotch_telemetry.Assignment.duty_tunnels t.duty vdpid <> [] then
                    poll_vswitch_telemetry t vdpid))
  in
  C.start_heartbeat t.ctrl ~period:Config.heartbeat_period
    ~timeout:Config.heartbeat_timeout;
  Option.iter Reliable.start t.reliable

(** Heartbeat re-aliveness: a vswitch that stopped answering Echos (and
    may have crashed and restarted with empty tables) is talking again —
    flag it for a full intent resync at the next reconciler tick. *)
let handle_switch_alive t (sw : C.sw) =
  Option.iter
    (fun r ->
      Reliable.register_switch r sw;
      Reliable.request_resync r sw.C.dpid)
    t.reliable

(** The controller application record; register it {e before} any
    fallback routing app. *)
let app t =
  C.app
    ~packet_in:(fun sw pi -> handle_packet_in t sw pi)
    ~switch_dead:(fun sw -> handle_switch_dead t sw)
    ~switch_alive:(fun sw -> handle_switch_alive t sw)
    "scotch"

(** {1 Elastic pool growth (§5.6)}

    "We may also need to add new vswitches to increase the Scotch overlay
    capacity or replace the departed vswitches." *)

(** [add_vswitch_live t dev ~channel_latency ~as_backup] joins a new
    vswitch to a {e running} overlay: meshes it with the existing pool,
    builds uplink tunnels from every managed physical switch, registers
    it with the controller, installs its table-miss rule and — unless it
    joins as a backup — rebalances every active switch's select group to
    start using it. *)
let add_vswitch_live t dev ~channel_latency ~as_backup =
  Scotch_obs.Registry.incr t.pool_adds_c;
  if Scotch_obs.Obs.is_enabled () then
    Scotch_obs.Obs.instant ~name:"scotch.pool_add" ~cat:"core"
      ~ts:(now t) ~tid:(Switch.dpid dev)
      ~args:[ ("backup", if as_backup then "true" else "false") ];
  Overlay.add_vswitch t.overlay dev ~backup:as_backup;
  Hashtbl.iter
    (fun _ m -> Overlay.connect_switch t.overlay m.msw.C.device ~to_vswitches:[ Switch.dpid dev ])
    t.managed;
  let sw = register_vswitch t dev ~channel_latency in
  if not as_backup then rebalance_groups t;
  sw

(* A pool-membership change shared by the breaker/autoscaler entry
   points below: flip the overlay flag, count, trace, rebalance. *)
let pool_change t vdpid ~counter ~event ~change =
  if Hashtbl.mem t.vswitch_handles vdpid then begin
    change ();
    counter ();
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:event ~cat:"core" ~ts:(now t) ~tid:vdpid ~args:[];
    rebalance_groups t
  end

(** Circuit breaker open: eject a sick vswitch from every select group
    without declaring it dead — existing flows keep draining through
    it, it just gets no new ones. *)
let quarantine_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.quarantines <- t.counters.quarantines + 1)
    ~event:"scotch.vswitch_quarantine"
    ~change:(fun () -> Overlay.set_quarantined t.overlay vdpid true)

(** Circuit breaker closed again: readmit a recovered vswitch to the
    select groups. *)
let readmit_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.readmissions <- t.counters.readmissions + 1)
    ~event:"scotch.vswitch_readmit"
    ~change:(fun () -> Overlay.set_quarantined t.overlay vdpid false)

(** Autoscaler scale-up: move a standby (backup) vswitch to active
    duty. *)
let promote_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.promotions <- t.counters.promotions + 1)
    ~event:"scotch.vswitch_promote"
    ~change:(fun () -> Overlay.set_backup t.overlay vdpid false)

(** Autoscaler scale-down: demote an active vswitch to draining
    standby — no new flows, per-flow rules idle out, and it remains
    available for future promotion or failover. *)
let demote_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.demotions <- t.counters.demotions + 1)
    ~event:"scotch.vswitch_demote"
    ~change:(fun () -> Overlay.set_backup t.overlay vdpid true)

(** Pool-manager handoff: with an autoscaler in charge, standby
    vswitches idle on the bench instead of sharing select-group load —
    promotion is what puts them in rotation.  Rebalances every active
    group to the new membership. *)
let bench_standbys t on =
  Overlay.set_bench_backups t.overlay on;
  rebalance_groups t

(** The controller handle of a registered vswitch (pool management). *)
let vswitch_handle_of t vdpid = vswitch_handle t vdpid

(** Convenience: is the overlay currently active for switch [dpid]? *)
let is_active t dpid = match managed_of t dpid with Some m -> m.active | None -> false

(** The scheduler of a managed switch (tests/observability). *)
let sched_of t dpid = Option.map (fun m -> m.sched) (managed_of t dpid)

let decision_latency_quantile t q = Scotch_obs.Registry.quantile_opt t.decision_h q

(** Fault injection: suspend/resume the vswitch stats-polling loop (a
    controller-side monitoring outage; §5.3 elephant detection stops —
    under a sampled policy, telemetry polling stops through the same
    gate). *)
let set_stats_polling t enabled = t.stats_polling <- enabled

(** {1 Telemetry observability} *)

(** [set_on_elephant t f] installs a hook fired at every elephant
    detection, with the flow's key — experiments use it to measure
    precision/recall and time-to-detect against ground truth. *)
let set_on_elephant t f = t.on_elephant <- f

(** Channel cost of the exact detection path so far, as
    [(message units, wire bytes)]. *)
let exact_channel t = (t.ch_exact_msgs, t.ch_exact_bytes)

(** Channel cost of the sampled detection path (telemetry polls), as
    [(message units, wire bytes)]. *)
let sampled_channel t = (t.ch_sampled_msgs, t.ch_sampled_bytes)

(** Dpids of all managed physical switches, sorted (observability). *)
let managed_dpids t =
  Hashtbl.fold (fun dpid _ acc -> dpid :: acc) t.managed [] |> List.sort compare

(** Dpids of all registered overlay vswitches, sorted
    (observability). *)
let vswitch_dpids t =
  Hashtbl.fold (fun dpid _ acc -> dpid :: acc) t.vswitch_handles [] |> List.sort compare
