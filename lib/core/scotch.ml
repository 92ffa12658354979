(* The Scotch controller application (§4–§5): the new-flow pipeline,
   overlay activation and withdrawal, large-flow migration and the
   vswitch pool operations.  Large-flow detection lives in [Detection],
   tenant attribution and slicing in [Tenancy].  Exported values are
   documented in scotch.mli. *)

open Scotch_openflow
open Scotch_switch
open Scotch_packet
open Scotch_util
module C = Scotch_controller.Controller
module Reliable = Scotch_reliable.Reliable

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
  mutable install_batches : int; (* batches sent through [send_batch] or [send_fm] *)
}

type t = {
  ctrl : C.t;
  overlay : Overlay.t;
  policy : Policy.t;
  config : Config.t;
  tenancy : Tenancy.t;
  detection : Detection.t;
  db : Flow_info_db.t;
  managed : (int, managed) Hashtbl.t;
  vswitch_handles : (int, C.sw) Hashtbl.t;
  ports : Port_actions.t;
      (* the per-flow rules' instructions and Packet-Out actions, one
         immutable value per output port and shape for the run *)
  counters : counters;
  mutable recovery_hooks : (unit -> unit) list;
      (* fired after every vswitch repair (§5.6), where
         {!Scotch_verify.Hooks} resyncs the continuous verifier *)
  reliable : Reliable.t option;
      (* when present, every Flow/Group-mod goes through the intent
         store and barrier-acked transactions, and [start] launches the
         anti-entropy reconciler.  [None] (the default) keeps the
         legacy fire-and-forget path bit-identical. *)
  rebalances_c : Scotch_obs.Registry.counter;
  pool_adds_c : Scotch_obs.Registry.counter;
  decision_h : Scotch_obs.Registry.histogram;
      (* flow admit → routing decision complete (virtual s); obs-gated *)
}

(* [sched] over every managed switch's scheduler plus [ofa] over
   every registered pool member's agent. *)
let sum_admission managed vswitch_handles ~sched ~ofa =
  let acc = Hashtbl.fold (fun _ m acc -> acc + sched m.sched) managed 0 in
  Hashtbl.fold (fun _ (sw : C.sw) acc -> acc + ofa (Switch.ofa sw.C.device)) vswitch_handles acc

let create ?reliable ctrl overlay policy config =
  let module O = Scotch_obs.Obs in
  let managed = Hashtbl.create 16 and vswitch_handles = Hashtbl.create 16 in
  let tenancy =
    Tenancy.create config ~admission_sum:(sum_admission managed vswitch_handles)
  in
  let db = Flow_info_db.create () in
  let t =
    { ctrl; overlay; policy; config; tenancy; detection = Detection.create ctrl overlay db config;
      db; managed; vswitch_handles; ports = Port_actions.create ();
      counters =
        { flows_seen = 0; flows_overlay = 0; flows_physical = 0; flows_dropped = 0;
          flows_unroutable = 0; elephants_detected = 0; migrations_completed = 0;
          activations = 0; withdrawals = 0; vswitch_failures = 0; quarantines = 0;
          readmissions = 0; promotions = 0; demotions = 0; install_batches = 0 };
      recovery_hooks = []; reliable;
      rebalances_c =
        O.counter ~help:"Select-group rebalances after pool changes"
          "scotch_core_group_rebalances_total";
      pool_adds_c =
        O.counter ~help:"vswitches joined to a running overlay"
          "scotch_core_pool_additions_total";
      decision_h =
        O.histogram ~help:"Flow admit to routing decision (virtual seconds)" ~lo:0.0 ~hi:0.5
          ~bins:50 "scotch_core_decision_latency_seconds" }
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
  t

let counters t = t.counters
let db t = t.db
let config t = t.config
let overlay t = t.overlay
let ctrl t = t.ctrl

let engine t = C.engine t.ctrl
let now t = Scotch_sim.Engine.now (engine t)

(* Routing-decision span: flow admit ([e.created]) to the moment the
   flow's fate is settled; one per decision outcome. *)
let decision_span t (e : Flow_info_db.entry) outcome =
  if Scotch_obs.Obs.is_enabled () then begin
    let dur = now t -. e.Flow_info_db.created in
    Scotch_obs.Registry.observe t.decision_h dur;
    (* pool dimension: the active vswitch count the decision ran
       against, so latency can be sliced by pool size offline *)
    let pool =
      ("pool", string_of_int (List.length (Overlay.active_vswitches t.overlay)))
    in
    let args = Tenancy.decision_args t.tenancy ~tenant:e.Flow_info_db.tenant ~dur outcome pool in
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

(* The shared output shapes of tunnel [tid]'s port. *)
let tunnel_shapes t tid = Port_actions.find t.ports (Scotch_topo.Topology.tunnel_port_of_id tid)

let managed_of t dpid = Hashtbl.find_opt t.managed dpid

let on_recovery t f = t.recovery_hooks <- f :: t.recovery_hooks

let notify_recovery t = List.iter (fun f -> f ()) t.recovery_hooks

(** {1 The send path}

    Every Flow/Group-mod leaves through {!send_batch}, or {!send_fm} for
    one FlowMod, and each call counts one batch in
    [counters.install_batches].  With no reliable layer a batch
    collapses to the legacy direct sends (same messages, same order —
    unimpaired runs stay bit-identical); with one, intents are recorded
    and the batch ships as a barrier-acked transaction. *)

let reliable t = t.reliable

(* A direct recursion rather than [List.iter (C.send ctrl sw)], whose
   partial application would allocate a closure on every install. *)
let rec send_each ctrl sw = function
  | [] -> ()
  | p :: rest ->
    C.send ctrl sw p;
    send_each ctrl sw rest

let send_batch t (sw : C.sw) payloads =
  t.counters.install_batches <- t.counters.install_batches + 1;
  match t.reliable with
  | None -> send_each t.ctrl sw payloads
  | Some r ->
    Reliable.register_switch r sw;
    Reliable.transaction r sw payloads

(* [send_batch] of one FlowMod, without the list when no reliable
   layer reads it. *)
let send_fm t sw fm =
  match t.reliable with
  | None ->
    t.counters.install_batches <- t.counters.install_batches + 1;
    C.send t.ctrl sw (Of_msg.Flow_mod fm)
  | Some _ -> send_batch t sw [ Of_msg.Flow_mod fm ]

let install t sw ?(table_id = 0) ?(priority = 1) ?(idle_timeout = 0.0)
    ?(cookie = Of_types.cookie_none) ~match_ ~instructions () =
  send_fm t sw
    (Of_msg.Flow_mod.add ~table_id ~priority ~idle_timeout ~cookie ~match_ ~instructions ())

let uninstall t sw ?(table_id = 0) ?priority ~match_ () =
  send_fm t sw
    { (Of_msg.Flow_mod.delete ~table_id ~match_ ()) with
      Of_msg.Flow_mod.priority = Option.value priority ~default:0 }

(** {1 Registration} *)

(* Every attachment: connect [dev], run [setup] on its handle, give
   its OFA the tenant pin budgets and install its table-miss rule. *)
let connect t dev ~channel_latency setup =
  let sw = C.connect t.ctrl dev ~latency:channel_latency in
  let r = setup sw in
  Tenancy.set_pin_budgets t.tenancy (Switch.ofa dev);
  install t sw ~table_id:0 ~priority:0 ~cookie:Config.cookie_miss ~match_:Of_match.wildcard
    ~instructions:Of_action.to_controller ();
  r

let register_vswitch t dev ~channel_latency =
  connect t dev ~channel_latency (fun sw ->
      Hashtbl.replace t.vswitch_handles (Switch.dpid dev) sw;
      Detection.attach_sampler t.detection dev;
      Tenancy.classify_pool t.tenancy (Switch.ofa dev) t.overlay;
      sw)

let manage_switch t dev ~channel_latency =
  connect t dev ~channel_latency (fun sw ->
      let cfg = t.config in
      let sched =
        Sched.create (engine t) ~shed_policy:cfg.Config.shed_policy
          ~deadline:cfg.Config.ingress_deadline ~tenants:(Tenancy.tenants t.tenancy)
          ~rate:Config.rule_rate ~overlay_threshold:cfg.Config.overlay_threshold
          ~drop_threshold:Config.drop_threshold ~differentiate:cfg.Config.ingress_differentiation
      in
      Sched.start sched;
      Tenancy.classify_edge t.tenancy (Switch.ofa dev) ~dpid:(Switch.dpid dev);
      let m =
        { msw = sw; sched; attributed = Stats.Rate_meter.create ~window:1.0; active = false;
          activated_at = 0.0; assigned = []; groups_installed = [] }
      in
      Hashtbl.replace t.managed (Switch.dpid dev) m;
      m)

let vswitch_handle_of t vdpid = Hashtbl.find t.vswitch_handles vdpid

let handle_of t dpid =
  match vswitch_handle_of t dpid with
  | sw -> Some sw
  | exception Not_found -> (
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
    (fun (gid, slice) -> group_mod_of m ~gid ~buckets:(buckets_of_assignment slice))
    (Tenancy.group_slices t.tenancy m.assigned)

let install_group t m =
  List.iter (fun gm -> send_batch t m.msw [ Of_msg.Group_mod gm ]) (group_mods_for t m)

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
    let redirects =
      List.map
        (fun port ->
          Of_msg.Flow_mod.add ~table_id:0 ~priority:redirect_priority
            ~cookie:Config.cookie_green
            ~match_:(Of_match.with_in_port port Of_match.wildcard)
            ~instructions:
              (Tenancy.overlay_instructions t.tenancy ~port
                 ~tenant:(Tenancy.tenant_of_flow t.tenancy ~first_hop:dpid ~ingress_port:port))
            ())
        (Switch.normal_ports m.msw.C.device)
    in
    send_batch t m.msw
      (List.map (fun g -> Of_msg.Group_mod g) gms
      @ List.map (fun fm -> Of_msg.Flow_mod fm) (Tenancy.balancer t.tenancy @ redirects))
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
                (Tenancy.overlay_instructions t.tenancy ~port:e.Flow_info_db.ingress_port
                   ~tenant:e.Flow_info_db.tenant)
              ();
            decr remaining;
            if !remaining = 0 then remove_redirects ()))
      pins

(** {1 Overlay routing (§4.1–4.2)} *)

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
    let pool = Tenancy.slice_of_tenant t.tenancy assigned e.Flow_info_db.tenant in
    let n = List.length pool in
    let vdpid, _ = List.nth pool (Flow_key.hash e.Flow_info_db.key mod n) in
    Some vdpid

(* The exact-match rule steering a flow at an overlay vswitch.  Both
   values are immutable and shared: [match_] is the flow's
   {!Of_match.exact_flow}, one value for the entry and the cover
   install, and [instructions] a shape from [t.ports]. *)
let install_vflow t sw match_ instructions =
  send_fm t sw
    { Of_msg.Flow_mod.command = Of_msg.Flow_mod.Add; table_id = 0; priority = flow_priority;
      match_; instructions; idle_timeout = Config.vswitch_rule_idle; hard_timeout = 0.0;
      cookie = Config.cookie_vflow }

(* The tunnel a flow leaves its entry vswitch by: into its policy
   segment [seg], where green rules at S_U/S_D carry it through the
   middlebox and on to the cover vswitch; else into the mesh toward the
   cover, or straight to the host when the entry is the cover.  Raises
   [Not_found] when there is none. *)
let entry_tunnel t seg ~entry ~cover dst_ip =
  match seg with
  | Some seg -> Policy.entry_tunnel seg ~vswitch_dpid:entry
  | None ->
    if entry = cover then Overlay.delivery_tunnel t.overlay ~vswitch_dpid:entry dst_ip
    else Overlay.mesh_tunnel t.overlay ~src:entry ~dst:cover

(** [route_overlay t e pkt ~entry] installs the overlay path for flow
    [e]: a rule at the entry vswitch (pop the ingress label, forward
    into the mesh / policy segment / delivery tunnel) and, if distinct,
    a rule at the vswitch covering the destination; then Packet-Outs the
    first packet at the entry vswitch. *)
let route_overlay t (e : Flow_info_db.entry) pkt ~entry =
  let key = e.Flow_info_db.key in
  let dst_ip = key.Flow_key.ip_dst in
  match Overlay.cover_of_ip t.overlay dst_ip with
  | exception Not_found -> unroutable t e
  | cover -> (
    let seg = Policy.classify t.policy key in
    (* each lookup raises [Not_found] on a miss, so a hit allocates
       nothing (nor does the tuple, which the match takes apart) *)
    match (entry_tunnel t seg ~entry ~cover dst_ip, vswitch_handle_of t entry) with
    | exception Not_found -> unroutable t e
    | tid, entry_sw ->
      let entry_out = tunnel_shapes t tid in
      let match_ = Of_match.exact_flow key in
      install_vflow t entry_sw match_ entry_out.Port_actions.pop_instructions;
      (if cover <> entry then
         match
           (Overlay.delivery_tunnel t.overlay ~vswitch_dpid:cover dst_ip, vswitch_handle_of t cover)
         with
         | exception Not_found -> ()
         | tid, cover_sw ->
           install_vflow t cover_sw match_ (tunnel_shapes t tid).Port_actions.out_instructions);
      C.packet_out t.ctrl entry_sw ~actions:entry_out.Port_actions.pop pkt;
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
    is sent.  Every hop's rule shares one {!Of_match.exact_flow} and
    takes its instructions from [t.ports]. *)
let install_physical t (e : Flow_info_db.entry) ~first_packet ~on_complete =
  let key = e.Flow_info_db.key in
  let dst_ip = key.Flow_key.ip_dst in
  let first_hop = e.Flow_info_db.first_hop in
  let match_ = Of_match.exact_flow key in
  let mk_rule dpid out_port =
    ( dpid,
      out_port,
      Of_msg.Flow_mod.add ~table_id:0 ~priority:Policy.red_priority
        ~idle_timeout:Config.physical_rule_idle ~cookie:Config.cookie_red ~match_
        ~instructions:(Port_actions.find t.ports out_port).Port_actions.out_instructions () )
  in
  let rules =
    match Policy.classify t.policy key with
    | Some seg -> (
      match Policy.physical_path_through t.policy seg ~first_hop ~dst_ip with
      | None -> None
      | Some (plain_hops, exit_port) ->
        Some
          (List.map (fun (d, p) -> mk_rule d p) plain_hops
          @ Policy.red_rules seg t.ports ~match_ ~exit_port))
    | None -> (
      match Scotch_topo.Topology.route_to_host (C.topo t.ctrl) ~src:first_hop ~dst_ip with
      | None -> None
      | Some hops -> Some (List.map (fun (d, p) -> mk_rule d p) hops))
  in
  match rules with
  | None -> unroutable t e
  | Some rules ->
    let first_hop_rules, downstream =
      List.partition (fun (d, _, _) -> d = first_hop) rules
    in
    let finish () =
      List.iter (fun (d, _, fm) -> send_flow_mod t d fm) first_hop_rules;
      (match (first_packet, first_hop_rules, handle_of t first_hop) with
      | Some pkt, (_, out_port, _) :: _, Some sw ->
        (* the buffered packet may still carry the inner ingress label
           it picked up on its way to a vswitch: strip it before
           re-injecting on the physical path *)
        C.packet_out t.ctrl sw ~actions:(Port_actions.find t.ports out_port).Port_actions.pop pkt
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
        (fun (d, _, fm) ->
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
    install destination-first.  [detected_at] starts its trace span. *)
let do_migration t ~detected_at (e : Flow_info_db.entry) =
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

(* The §5.3 trigger: an overlay flow {!Detection} found large starts
   migrating, once.  Count and trace the detection, fire the
   ground-truth hook, and queue the migration through the first hop's
   large-flow queue. *)
let migrate_large t ~vdpid (e : Flow_info_db.entry) =
  if t.config.Config.migration_enabled && not e.Flow_info_db.migrating then begin
    e.Flow_info_db.migrating <- true;
    t.counters.elephants_detected <- t.counters.elephants_detected + 1;
    let detected_at =
      if Scotch_obs.Obs.is_enabled () then begin
        Scotch_obs.Obs.instant ~name:"scotch.elephant_detected" ~cat:"core" ~ts:(now t)
          ~tid:vdpid ~args:[];
        now t
      end
      else 0.0
    in
    Detection.elephant t.detection e.Flow_info_db.key;
    match managed_of t e.Flow_info_db.first_hop with
    | Some m ->
      Sched.submit_large m.sched ~tenant:e.Flow_info_db.tenant (fun () ->
          do_migration t ~detected_at e)
    | None -> e.Flow_info_db.migrating <- false
  end

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

let route_via_overlay t m (e : Flow_info_db.entry) pkt ~entry_vswitch =
  let entry =
    match entry_vswitch with Some _ -> entry_vswitch | None -> predicted_entry t m e
  in
  if not m.active then activate t m;
  match entry with
  | None -> unroutable t e
  | Some entry -> route_overlay t e pkt ~entry

(* The flow never got its decision: refused outright, evicted to make
   room, or expired past the ingress deadline. *)
let shed_flow t (e : Flow_info_db.entry) =
  match e.Flow_info_db.kind with
  | Flow_info_db.Pending ->
    t.counters.flows_dropped <- t.counters.flows_dropped + 1;
    Flow_info_db.set_kind t.db e Flow_info_db.Dropped;
    decision_span t e "shed"
  | Flow_info_db.Overlay _ | Flow_info_db.Physical | Flow_info_db.Dropped -> ()

(* The ingress queue's verdict comes first, so the queued item's
   closures are built only for a flow that is queued. *)
let serve_new_flow t m (e : Flow_info_db.entry) pkt ~entry_vswitch =
  let port = e.Flow_info_db.ingress_port and tenant = e.Flow_info_db.tenant in
  match Sched.ingress_verdict m.sched ~port ~tenant with
  | `Queued ->
    Sched.enqueue_ingress m.sched ~port ~tenant
      ~shed:(fun () -> shed_flow t e)
      (fun () ->
        match e.Flow_info_db.kind with
        | Flow_info_db.Pending ->
          (* §5.3's path-load check applies to any physical setup: when a
             switch downstream cannot absorb the rules, the flow stays on
             the overlay instead of waiting forever. *)
          if
            path_overloaded t ~first_hop:e.Flow_info_db.first_hop
              ~dst_ip:e.Flow_info_db.key.Flow_key.ip_dst ~tenant
          then route_via_overlay t m e pkt ~entry_vswitch
          else install_physical t e ~first_packet:(Some pkt) ~on_complete:(fun () -> ())
        | Flow_info_db.Overlay _ | Flow_info_db.Physical | Flow_info_db.Dropped -> ())
  | `Overlay ->
    (* beyond the control-plane capacity of the physical network: route
       over the Scotch overlay (activating redirection if needed) *)
    route_via_overlay t m e pkt ~entry_vswitch
  | `Drop -> shed_flow t e

(* A packet-in raised by a vswitch for a packet that arrived over a
   mesh tunnel: the delivery rule at the covering vswitch lost a race
   with the data packet (or expired).  Repair: reinstall the delivery
   rule and forward the packet. *)
let repair_delivery t (sw : C.sw) (pi : Of_msg.Packet_in.t) pkt =
  if Hashtbl.mem t.vswitch_handles sw.C.dpid && pi.Of_msg.Packet_in.tunnel_id <> None then begin
    let key = Packet.flow_key pkt in
    match Overlay.delivery_tunnel t.overlay ~vswitch_dpid:sw.C.dpid key.Flow_key.ip_dst with
    | exception Not_found -> false
    | tid ->
      let out = tunnel_shapes t tid in
      install_vflow t sw (Of_match.exact_flow key) out.Port_actions.out_instructions;
      C.packet_out t.ctrl sw ~actions:out.Port_actions.out pkt;
      true
  end
  else false

(* A Packet-In attributed to the physical switch [origin_dpid] and its
   ingress port; [entry_vswitch] is the vswitch that raised it, if the
   packet came over the overlay. *)
let origin_packet_in t pkt ~origin_dpid ~ingress_port ~entry_vswitch =
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
            ~now:(now t)
        in
        serve_new_flow t m e pkt ~entry_vswitch)
    | None ->
      t.counters.flows_seen <- t.counters.flows_seen + 1;
      let tenant = Tenancy.tenant_of_flow t.tenancy ~first_hop:origin_dpid ~ingress_port in
      let e =
        Flow_info_db.admit t.db ~tenant ~key ~first_hop:origin_dpid ~ingress_port ~now:(now t)
      in
      serve_new_flow t m e pkt ~entry_vswitch);
    true

let handle_packet_in t (sw : C.sw) (pi : Of_msg.Packet_in.t) =
  let pkt = pi.Of_msg.Packet_in.packet in
  (* Attribute the Packet-In to its origin physical switch. *)
  match pi.Of_msg.Packet_in.tunnel_id with
  | Some tid -> (
    match Overlay.origin_of_tunnel t.overlay tid with
    | origin_dpid ->
      (* §5.2: physical switch id from the tunnel id, ingress port from
         the inner MPLS label *)
      let ingress_port =
        match Packet.outer_mpls_label pkt with label -> label | exception Not_found -> 0
      in
      origin_packet_in t pkt ~origin_dpid ~ingress_port ~entry_vswitch:(Some sw.C.dpid)
    | exception Not_found -> repair_delivery t sw pi pkt (* a mesh-tunnel arrival *))
  | None -> (
    match managed_of t sw.C.dpid with
    | Some _ ->
      origin_packet_in t pkt ~origin_dpid:sw.C.dpid ~ingress_port:pi.Of_msg.Packet_in.in_port
        ~entry_vswitch:None
    | None -> repair_delivery t sw pi pkt)

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
  Detection.refresh_duty t.detection

(* A pool-membership change shared by the breaker, autoscaler and
   failure entry points: flip the overlay state, count, trace,
   rebalance. *)
let pool_change t vdpid ~counter ~event ~change =
  if Hashtbl.mem t.vswitch_handles vdpid then begin
    change ();
    counter ();
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:event ~cat:"core" ~ts:(now t) ~tid:vdpid ~args:[];
    rebalance_groups t
  end

let fail_vswitch t dpid =
  pool_change t dpid
    ~counter:(fun () -> t.counters.vswitch_failures <- t.counters.vswitch_failures + 1)
    ~event:"scotch.vswitch_dead"
    ~change:(fun () -> ignore (Overlay.mark_dead t.overlay dpid))

let revive_vswitch t dpid =
  if Hashtbl.mem t.vswitch_handles dpid then begin
    Overlay.mark_recovered t.overlay dpid;
    rebalance_groups t;
    notify_recovery t
  end

let handle_switch_dead t (sw : C.sw) = fail_vswitch t sw.C.dpid

(** {1 Policy green rules} *)

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

let start t =
  Detection.refresh_duty t.detection;
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every (engine t) ~period:Config.monitor_interval (fun () ->
        monitor_tick t)
  in
  Detection.start t.detection
    ~vswitch:(fun vdpid -> Hashtbl.find_opt t.vswitch_handles vdpid)
    ~on_large:(migrate_large t);
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

let app t =
  C.app
    ~packet_in:(fun sw pi -> handle_packet_in t sw pi)
    ~switch_dead:(fun sw -> handle_switch_dead t sw)
    ~switch_alive:(fun sw -> handle_switch_alive t sw)
    ()

(** {1 Elastic pool growth (§5.6)}

    "We may also need to add new vswitches to increase the Scotch overlay
    capacity or replace the departed vswitches." *)

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

let quarantine_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.quarantines <- t.counters.quarantines + 1)
    ~event:"scotch.vswitch_quarantine"
    ~change:(fun () -> Overlay.set_quarantined t.overlay vdpid true)

let readmit_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.readmissions <- t.counters.readmissions + 1)
    ~event:"scotch.vswitch_readmit"
    ~change:(fun () -> Overlay.set_quarantined t.overlay vdpid false)

let promote_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.promotions <- t.counters.promotions + 1)
    ~event:"scotch.vswitch_promote"
    ~change:(fun () -> Overlay.set_backup t.overlay vdpid false)

let demote_vswitch t vdpid =
  pool_change t vdpid
    ~counter:(fun () -> t.counters.demotions <- t.counters.demotions + 1)
    ~event:"scotch.vswitch_demote"
    ~change:(fun () -> Overlay.set_backup t.overlay vdpid true)

let bench_standbys t on =
  Overlay.set_bench_backups t.overlay on;
  rebalance_groups t

let is_active t dpid = match managed_of t dpid with Some m -> m.active | None -> false

let sched_of t dpid = Option.map (fun m -> m.sched) (managed_of t dpid)

let decision_latency_quantile t q = Scotch_obs.Registry.quantile_opt t.decision_h q

let set_stats_polling t enabled = Detection.set_polling t.detection enabled

let set_on_elephant t f = Detection.set_on_elephant t.detection f

let exact_channel t = Detection.exact_channel t.detection

let sampled_channel t = Detection.sampled_channel t.detection

let managed_dpids t =
  Hashtbl.fold (fun dpid _ acc -> dpid :: acc) t.managed [] |> List.sort compare

let vswitch_dpids t =
  Hashtbl.fold (fun dpid _ acc -> dpid :: acc) t.vswitch_handles [] |> List.sort compare

let admission_sum t = sum_admission t.managed t.vswitch_handles
