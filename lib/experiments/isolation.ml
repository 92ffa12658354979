(** Multi-tenant blast-radius isolation experiment: two tenants share
    one Scotch deployment, the attacker tenant mounts a spoofed-SYN
    flood mid-run, and the victim tenant must not notice.

    The deployment is the [Testbed.scotch_net] edge with tenancy
    configured: port-based attribution (clients on ports 1..n are the
    {e victim} tenant, port 99 is the {e attacker}), a 3:1
    select-group share split over a four-member pool, per-tenant
    admission budgets on the Fig. 7 scheduler and the OFA pin queues,
    [Priority_preserving] shedding with cross-tenant eviction
    forbidden, and per-tenant demand views in the elastic autoscaler.
    Attribution happens at the ingress port, so spoofed source
    addresses cannot move a flow across the tenant boundary.

    Two runs on the same seed differ only in the
    {!Scotch_faults.Fault.Tenant_flood} fault: a no-attack baseline
    and an attacked run at ~8x the attacker slice's flow-setup
    capacity.  Both runs also carry a mid-run gray failure
    ({!Scotch_faults.Fault.vswitch_degrade}) on a victim-slice member,
    exercising the per-function breaker: the member's Echo RTT
    collapses, the {e control-axis} breaker drains it from flow-setup
    duty, while the {e data-axis} breaker (delivery probes) stays
    closed and the member keeps forwarding its pinned flows.

    Isolation holds when the victim's admitted-flow p99 decision
    latency moves by at most {!p99_delta_bound} between the two runs,
    victim delivery stays above {!delivery_floor}, every shed flow is
    the attacker's own, and at least one drained-but-forwarding member
    was observed.  Same seed => bit-identical ledger and obs-trace
    digests (what the isolation smoke in [test/smoke.ml] checks). *)

open Scotch_switch
open Scotch_workload
open Scotch_faults
module C = Scotch_controller.Controller
module Scotch = Scotch_core.Scotch
module Config = Scotch_core.Config
module Tenant = Scotch_core.Tenant
module Sched = Scotch_core.Sched
module Admission = Scotch_util.Admission
module Overlay = Scotch_core.Overlay
module Elastic = Scotch_elastic.Elastic
module Breaker = Scotch_elastic.Breaker
module O = Scotch_obs.Obs

let victim = 0
let attacker = 1
let victim_share = 3
let attacker_share = 1

(* The attacker's blast radius, in queue slots: at most this many
   ingress submissions per managed switch and pin jobs per vswitch OFA
   may belong to it at once.  The victim carries no budget — only the
   shared Fig. 7 thresholds apply to it. *)
let attacker_sched_budget = 8
let attacker_pin_budget = 10

let num_active = 4
let num_backups = 1
let max_pool = num_active + num_backups
let num_clients = 3
(* 30 flows/s of victim load: half the victim's reserved 3/4 share of
   the controller's 80 rules/s serve capacity, so victim queues stay
   shallow and its decision latency is wait-free in both runs *)
let client_rate = 10.0
let flood_rate = 400.0 (* the attacker burst, flows/s *)
let degrade_peak = 40.0

(* The isolation gates, asserted by the isolation smoke in
   test/smoke.ml. *)
let p99_delta_bound = 0.05
let delivery_floor = 0.99

let bin_width = 2.0

let tenants =
  [ Tenant.make ~share:victim_share ~id:victim "victim";
    Tenant.make ~sched_budget:attacker_sched_budget ~pin_budget:attacker_pin_budget
      ~share:attacker_share ~id:attacker "attacker" ]

(** Port-based attribution on every managed switch: the dedicated
    attacker port maps to the attacker tenant, everything else
    (clients, servers, tunnels) to the victim. *)
let tenancy =
  { Config.tenants;
    tenant_of =
      (fun ~first_hop:_ ~ingress_port ->
        if ingress_port = Testbed.attacker_edge_port then attacker else victim) }

(* A low activation threshold puts both runs on the overlay well
   before the flood starts, so the attacked run differs from the
   baseline only in the attacker's own traffic; withdrawal is disabled
   so the two runs stay structurally identical to the horizon.
   [Priority_preserving] + tenant isolation is the policy under test:
   eviction never crosses the tenant boundary, and the per-tenant
   budgets — not serve-time deadlines or shared queue caps — are the
   only admission mechanism, so every shed is attributable to the
   tenant that earned it.

   [path_load_threshold] below zero keeps every admitted mouse on the
   overlay (the §5.3 check always reads "loaded"): single-SYN probes
   gain nothing from a physical path, and each per-flow red-rule
   install would stall the hardware datapath for the TCAM write —
   exactly the race the flow's own packet then loses.  Physical
   installs, and with them the delivery gap, are for this workload
   pure overhead. *)
let scotch_config ~verify =
  { Config.default with
    Config.shed_policy = Admission.Priority_preserving;
    overlay_threshold = 8;
    activate_pin_rate = 5.0;
    withdraw_flow_rate = 0.0;
    path_load_threshold = -1.0;
    verify;
    tenancy = Some tenancy }

(* The overload experiment's deliberately weak pool member (~50
   flows/s of flow-setup each), but with a pin queue deep enough that
   the shared cap never fires: the victim's 3-member slice has 2.5x
   headroom over its 60 flows/s, the attacker's single member is 8x
   oversubscribed by the flood — so all shedding comes from the
   attacker's own budget. *)
let pool_profile =
  { Overload.weak_vswitch with Profile.pin_queue_capacity = 200 }

(* Overload's autoscaler tuning with the per-tenant demand split and
   this pool's bounds.  [Overload.vswitch_capacity] holds for
   [pool_profile], which differs from the weak vswitch only in
   pin-queue depth. *)
let elastic_config =
  { Overload.elastic_config with
    Elastic.tenant_shares = [ (victim, victim_share); (attacker, attacker_share) ];
    low_water = 0.05; (* steady victim load must never drain the pool mid-run *)
    sustain_down = 40;
    min_pool = num_active;
    max_pool }

(* ------------------------------------------------------------------ *)
(* Timeline: the flood sits strictly inside the gray-failure window,
   so the drained member and the flood are concurrent — the hardest
   case for the victim. *)

let duration ~scale = 30.0 *. scale
let degrade_at ~scale = 8.0 *. scale
let degrade_duration ~scale = 16.0 *. scale
let flood_at ~scale = 10.0 *. scale
let flood_duration ~scale = 12.0 *. scale

(** The gray failure lands on the last member of the victim's slice
    (slices are dealt in share order over the assigned pool, so with a
    3:1 split over dpids 100..103 the victim holds 100..102). *)
let degraded_dpid = Testbed.vswitch_dpid 2

let plan ~attack ~scale =
  let degrade =
    Fault.vswitch_degrade ~at:(degrade_at ~scale) ~duration:(degrade_duration ~scale)
      ~peak:degrade_peak degraded_dpid
  in
  Plan.of_list
    (if attack then
       [ degrade;
         Fault.tenant_flood ~at:(flood_at ~scale) ~duration:(flood_duration ~scale)
           ~rate:flood_rate attacker ]
     else [ degrade ])

(* ------------------------------------------------------------------ *)
(* Measurement *)

(** Everything shed attributable to [tenant], across the whole net:
    controller ingress (budget refusals, capacity drops, evictions,
    deadline expiries) plus the vswitch pin queues. *)
let tenant_shed_total (net : Testbed.scotch_net) ~tenant =
  Scotch.admission_sum net.Testbed.app
    ~sched:(fun s -> Admission.shed (Sched.admission s) ~tenant)
    ~ofa:(fun ofa -> Admission.shed (Ofa.admission ofa) ~tenant)

type outcome = {
  victim_p99 : float option;    (* admitted-flow decision latency, s *)
  victim_delivery : float;      (* fraction of victim flows delivered *)
  victim_launched : int;
  victim_shed : int;            (* must stay 0: the blast radius held *)
  attacker_launched : int;
  attacker_shed : int;
  drained_forwarding : int;
      (* peak simultaneous members drained from flow-setup duty by the
         control-axis breaker while their data axis stayed closed *)
  quarantines : int;            (* control-axis breaker ejections *)
  data_ejects : int;            (* data-axis removals from forwarding *)
  success : (float * float) list; (* per-bin victim delivery fraction *)
  verify_checks : int;
  verify_errors : int;          (* invariant errors + equivalence-audit misses *)
  ledger_digest : string;
  trace_digest : string;        (* obs trace digest — the determinism check *)
}

let run_variant ~attack ~verify ~seed ~scale () =
  O.reset ~capacity:(1 lsl 20) ();
  O.enable ();
  let net =
    Testbed.scotch_net ~seed ~vswitch_profile:pool_profile ~config:(scotch_config ~verify)
      ~num_vswitches:num_active ~num_backups ~num_clients ~num_servers:1 ()
  in
  Scotch.bench_standbys net.Testbed.app true;
  (* the data-axis probe: a synchronous delivery check of the member's
     forwarding path — green as long as the heartbeat considers it
     alive.  Gray failures slow the OFA, not the dataplane, so only the
     control axis may open. *)
  let data_probe dpid =
    match Overlay.vswitch net.Testbed.overlay dpid with
    | Some i when i.Overlay.alive -> Breaker.Reply 0.001
    | Some _ | None -> Breaker.Timeout
  in
  let auto =
    Elastic.create
      ~config:{ elastic_config with Elastic.data_probe = Some data_probe }
      net.Testbed.app
  in
  Elastic.start auto;
  (* the attacker source exists (unstarted) in both runs so the two
     simulations allocate identical rng streams and port windows; only
     the Tenant_flood fault ever starts it *)
  let atk, flood = Testbed.flood_source net in
  let ledger =
    Injector.run
      (Injector.env ~flood ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ())
      (plan ~attack ~scale)
  in
  let clients =
    Array.init num_clients (fun i ->
        Testbed.client_source net ~i ~rate:client_rate ())
  in
  Array.iter Source.start clients;
  let stop_clients_at = duration ~scale in
  Scotch_sim.Engine.schedule net.Testbed.engine ~delay:stop_clients_at (fun () ->
      Array.iter Source.stop clients);
  (* sample the per-function-breaker state: a member counts as
     drained-but-forwarding when its control axis has quarantined it
     out of flow-setup duty while it is still alive with a closed data
     axis *)
  let drained_peak = ref 0 in
  let stop_sampler =
    Scotch_sim.Engine.every net.Testbed.engine ~period:0.25 ~start:0.0 (fun () ->
        let n =
          Array.fold_left
            (fun acc v ->
              let dpid = Switch.dpid v in
              match Overlay.vswitch net.Testbed.overlay dpid with
              | Some i
                when i.Overlay.quarantined && i.Overlay.alive
                     && Elastic.data_breaker_state auto dpid = Some Breaker.Closed ->
                acc + 1
              | Some _ | None -> acc)
            0 net.Testbed.vswitches
        in
        if n > !drained_peak then drained_peak := n)
  in
  (* run well past the last fault so queued pins drain, late flows
     complete and the degraded member is readmitted *)
  let horizon = duration ~scale +. 10.0 in
  Testbed.run_until net ~until:horizon;
  stop_sampler ();
  Elastic.stop auto;
  let flows =
    Array.to_list clients
    |> List.concat_map Source.launched
    |> List.map (fun (l : Flow_gen.launched) ->
           ( l.Flow_gen.started,
             Scotch_topo.Host.flow_record net.Testbed.server l.Flow_gen.flow_id <> None ))
  in
  let victim_launched = List.length flows in
  let delivered = List.length (List.filter snd flows) in
  let verify_checks, verify_errors =
    match net.Testbed.verify with
    | None -> (0, 0)
    | Some v ->
      let mismatches =
        match Scotch_verify.Hooks.incremental v with
        | None -> 0
        | Some incr ->
          (Scotch_verify.Incremental.stats incr).Scotch_verify.Incremental.equiv_mismatches
      in
      (Scotch_verify.Hooks.checks_run v, Scotch_verify.Hooks.error_count v + mismatches)
  in
  let counters = Elastic.counters auto in
  { victim_p99 = Testbed.decision_p99 ~tenant:"victim" ();
    victim_delivery =
      (if victim_launched = 0 then 0.0
       else float_of_int delivered /. float_of_int victim_launched);
    victim_launched;
    victim_shed = tenant_shed_total net ~tenant:victim;
    attacker_launched = Source.launched_count atk;
    attacker_shed = tenant_shed_total net ~tenant:attacker;
    drained_forwarding = !drained_peak;
    quarantines = counters.Elastic.ejects;
    data_ejects = counters.Elastic.data_ejects;
    success = Testbed.success_bins ~bin_width ~until:stop_clients_at flows;
    verify_checks;
    verify_errors;
    ledger_digest = Ledger.digest ledger;
    trace_digest = Scotch_obs.Trace.digest (O.tracer ()) }

type pair = {
  baseline : outcome;  (* no attack, gray failure only *)
  attacked : outcome;  (* same seed, plus the tenant flood *)
  p99_delta : float;   (* |attacked - baseline| / baseline victim p99 *)
}

let run_pair ?(seed = 42) ?(scale = 1.0) () =
  let verify = Config.Off in
  let baseline = run_variant ~attack:false ~verify ~seed ~scale () in
  let attacked = run_variant ~attack:true ~verify ~seed ~scale () in
  let p99_delta =
    match (baseline.victim_p99, attacked.victim_p99) with
    | Some b, Some a when b > 0.0 -> Float.abs (a -. b) /. b
    | _ -> infinity
  in
  { baseline; attacked; p99_delta }

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let p = run_pair ~seed ~scale () in
  let pr tag (o : outcome) =
    Printf.printf
      "isolation: %-8s victim p99=%s s, delivery=%.4f (%d flows, shed %d); attacker %d \
       launched, %d shed; drained-forwarding peak=%d, quarantines=%d, data-ejects=%d\n"
      tag
      (match o.victim_p99 with Some q -> Printf.sprintf "%.4f" q | None -> "n/a")
      o.victim_delivery o.victim_launched o.victim_shed o.attacker_launched o.attacker_shed
      o.drained_forwarding o.quarantines o.data_ejects
  in
  pr "baseline" p.baseline;
  pr "attacked" p.attacked;
  Printf.printf "isolation: victim p99 delta = %.2f%% (bound %.0f%%)\n%!"
    (100.0 *. p.p99_delta) (100.0 *. p99_delta_bound);
  { Report.id = "isolation";
    title =
      Printf.sprintf
        "Tenant isolation: %.0f flows/s spoofed flood vs a %d-slot budget; victim at %.0f \
         flows/s on a %d:%d share split"
        flood_rate attacker_pin_budget
        (float_of_int num_clients *. client_rate)
        victim_share attacker_share;
    x_label = "time (s)";
    y_label = "victim delivery fraction";
    series =
      [ { Report.label = "victim delivery (no attack)"; points = p.baseline.success };
        { Report.label = "victim delivery (under flood)"; points = p.attacked.success } ] }
