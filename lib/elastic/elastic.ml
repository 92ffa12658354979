(** The elastic control loop: health-probes the vswitch pool through
    per-member circuit {!Breaker}s and autoscales pool capacity.

    One periodic loop does both jobs:

    {b Probing.}  Every [probe_period] each registered vswitch gets an
    Echo request through {!C.request} with a [probe_timeout] deadline.
    The measured round trip (or timeout) feeds the member's breaker;
    [Ejected]/[Readmitted] transitions are applied to the pool through
    {!Scotch.quarantine_vswitch}/{!Scotch.readmit_vswitch}.  Dead
    members (heartbeat) are skipped — liveness stays the heartbeat's
    job; the breaker covers the {e gray} failures underneath it, the
    member that answers but slowly.

    {b Autoscaling.}  Pool utilization is total overlay Packet-In
    demand over active capacity: [Σ pin_rate / (n_active ×
    vswitch_capacity)].  Utilization above [high_water] — or any fresh
    shedding at the admission-control layer — counts toward scale-up;
    below [low_water] with no shedding counts toward scale-down.  An
    action needs [sustain_up]/[sustain_down] consecutive ticks {e and}
    [cooldown] seconds since the last action (hysteresis bands plus
    rate limiting — the loop is deterministic and cannot oscillate
    faster than the cooldown).  Scale-up promotes the lowest-dpid
    standby, falling back to the [provision] callback; scale-down
    demotes the highest-dpid active member to draining standby (its
    per-flow rules idle out, and it remains available for failover or
    future promotion). *)

open Scotch_switch
module C = Scotch_controller.Controller
module Scotch = Scotch_core.Scotch
module Overlay = Scotch_core.Overlay
module Sched = Scotch_core.Sched
module Admission = Scotch_util.Admission

(** Control-loop tick, s. *)
let probe_period = 0.25

(** Echo probe deadline (a miss = Timeout), s. *)
let probe_timeout = 0.3

(** Utilization above this counts toward scale-up. *)
let high_water = 0.8

(** Consecutive overloaded ticks before scaling up. *)
let sustain_up = 3

(** Minimum time between autoscaler actions, s. *)
let cooldown = 2.0

type config = {
  rtt_budget : float;
      (** Echo round trip the per-member control-path breaker counts as
          fully healthy, s *)
  data_probe : (int -> Breaker.probe) option;
      (** synchronous per-tick delivery probe of a member's data path
          (argument: member dpid); [None] (default) disables the data
          axis entirely.  A data-axis ejection removes the member from
          forwarding ({!Scotch.fail_vswitch}); a control-axis ejection
          only quarantines it — degraded-but-forwarding members keep
          carrying traffic while drained from flow-setup duty. *)
  tenant_shares : (int * int) list;
      (** [(tenant, share)] weights for per-tenant autoscaler views;
          [[]] (default) keeps the aggregate view.  When set, each
          tenant's demand and fresh shedding count toward scaling only
          up to its entitlement (its share of [max_pool ×
          vswitch_capacity]), so one tenant's flash crowd cannot starve
          another's pool headroom or burn the shared scale-up budget. *)
  vswitch_capacity : float;  (** new-flow/s one pool member absorbs *)
  low_water : float;         (** utilization below this counts toward scale-down *)
  sustain_down : int;        (** consecutive idle ticks before scaling down *)
  min_pool : int;            (** never demote below this many active members *)
  max_pool : int;            (** never grow beyond this many active members *)
}

let default_config =
  { rtt_budget = 0.02; data_probe = None; tenant_shares = []; vswitch_capacity = 1000.0;
    low_water = 0.3; sustain_down = 8; min_pool = 1; max_pool = 8 }

let check_config c =
  if not (c.rtt_budget > 0.0) then invalid_arg "Elastic: rtt_budget must be positive";
  if not (c.vswitch_capacity > 0.0) then
    invalid_arg "Elastic: vswitch_capacity must be positive";
  if not (c.low_water >= 0.0 && c.low_water < high_water) then
    invalid_arg "Elastic: need 0 <= low_water < high_water";
  if c.sustain_down < 1 then invalid_arg "Elastic: sustain_down must be >= 1";
  if c.min_pool < 1 || c.max_pool < c.min_pool then
    invalid_arg "Elastic: need 1 <= min_pool <= max_pool";
  List.iter
    (fun (_, share) ->
      if share < 1 then invalid_arg "Elastic: tenant shares must be >= 1")
    c.tenant_shares;
  let ids = List.map fst c.tenant_shares in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Elastic: duplicate tenant id in tenant_shares"

type action = { time : float; dir : [ `Up | `Down ] }

type counters = {
  mutable ejects : int;
  mutable readmits : int;
  mutable data_ejects : int;   (* data-axis breaker removals from forwarding *)
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable probes_sent : int;
  mutable probe_timeouts : int;
}

type t = {
  config : config;
  app : Scotch.t;
  ctrl : C.t;
  provision : (unit -> C.sw option) option;
  breakers : (int, Breaker.t * Breaker.t) Hashtbl.t;
      (* per member: (control, data) — independent axes, so a member
         degraded on one keeps serving the other *)
  mutable up_streak : int;
  mutable down_streak : int;
  mutable last_action : float;
  mutable actions_rev : action list;
  mutable last_util : float;
  mutable last_shed : int; (* admission-layer shed total at the last tick *)
  last_tenant_pins : (int, int) Hashtbl.t;  (* per-tenant pin totals at the last tick *)
  last_tenant_shed : (int, int) Hashtbl.t;  (* per-tenant shed totals at the last tick *)
  action_c : (string * int, Scotch_obs.Registry.counter) Hashtbl.t;
      (* (direction, pool-size-at-decision)-labelled action counters,
         created lazily per observed pool size *)
  mutable stop : (unit -> unit) option;
  counters : counters;
}

let engine t = C.engine t.ctrl
let now t = Scotch_sim.Engine.now (engine t)

(** [create ?config ?provision app] — [provision] is called when
    scale-up finds no standby to promote; it must build, join (active)
    and return the new member, or [None] when the substrate is out of
    capacity. *)
let create ?(config = default_config) ?provision app =
  check_config config;
  let t =
    { config; app; ctrl = Scotch.ctrl app; provision;
      breakers = Hashtbl.create 16;
      up_streak = 0; down_streak = 0; last_action = neg_infinity; actions_rev = [];
      last_util = 0.0; last_shed = 0;
      last_tenant_pins = Hashtbl.create 4; last_tenant_shed = Hashtbl.create 4;
      action_c = Hashtbl.create 8; stop = None;
      counters =
        { ejects = 0; readmits = 0; data_ejects = 0; scale_ups = 0;
          scale_downs = 0; probes_sent = 0; probe_timeouts = 0 } }
  in
  let module O = Scotch_obs.Obs in
  let c = t.counters in
  O.counter_fn ~help:"Circuit-breaker ejections" "scotch_elastic_ejects_total"
    (fun () -> c.ejects);
  O.counter_fn ~help:"Circuit-breaker readmissions" "scotch_elastic_readmits_total"
    (fun () -> c.readmits);
  O.counter_fn ~help:"Autoscaler scale-up actions" "scotch_elastic_scale_ups_total"
    (fun () -> c.scale_ups);
  O.counter_fn ~help:"Autoscaler scale-down actions" "scotch_elastic_scale_downs_total"
    (fun () -> c.scale_downs);
  O.counter_fn ~help:"Health probes sent" "scotch_elastic_probes_total"
    (fun () -> c.probes_sent);
  O.counter_fn ~help:"Health probes that timed out" "scotch_elastic_probe_timeouts_total"
    (fun () -> c.probe_timeouts);
  O.gauge_fn ~help:"Active (serving) vswitch pool size" "scotch_elastic_pool_active"
    (fun () -> float_of_int (List.length (Overlay.active_vswitches (Scotch.overlay app))));
  O.gauge_fn ~help:"Quarantined vswitches" "scotch_elastic_pool_quarantined"
    (fun () -> float_of_int (Overlay.quarantined_count (Scotch.overlay app)));
  O.gauge_fn ~help:"Pool utilization (demand over active capacity)"
    "scotch_elastic_utilization" (fun () -> t.last_util);
  t

let breaker_of t dpid =
  match Hashtbl.find_opt t.breakers dpid with
  | Some b -> b
  | None ->
    let ((control, data) as b) =
      (Breaker.create ~rtt_budget:t.config.rtt_budget (), Breaker.create ())
    in
    Hashtbl.replace t.breakers dpid b;
    Scotch_obs.Obs.gauge_fn ~help:"EWMA vswitch health score"
      ~labels:[ ("dpid", string_of_int dpid) ] "scotch_elastic_health_score"
      (fun () -> Breaker.score control);
    if t.config.data_probe <> None then
      Scotch_obs.Obs.gauge_fn ~help:"EWMA vswitch data-path (forwarding) health score"
        ~labels:[ ("dpid", string_of_int dpid) ] "scotch_elastic_data_health_score"
        (fun () -> Breaker.score data);
    b

let health_score t dpid =
  Option.map (fun (c, _) -> Breaker.score c) (Hashtbl.find_opt t.breakers dpid)

let breaker_state t dpid =
  Option.map (fun (c, _) -> Breaker.state c) (Hashtbl.find_opt t.breakers dpid)

let data_breaker_state t dpid =
  Option.map (fun (_, d) -> Breaker.state d) (Hashtbl.find_opt t.breakers dpid)

(** Autoscaler actions taken so far, oldest first. *)
let actions t = List.rev t.actions_rev

let counters t = t.counters

let feed_probe t dpid probe =
  let control, _ = breaker_of t dpid in
  (match probe with
  | Breaker.Timeout -> t.counters.probe_timeouts <- t.counters.probe_timeouts + 1
  | Breaker.Reply _ -> ());
  match Breaker.observe control ~now:(now t) probe with
  | Some Breaker.Ejected ->
    t.counters.ejects <- t.counters.ejects + 1;
    Scotch.quarantine_vswitch t.app dpid
  | Some Breaker.Readmitted ->
    t.counters.readmits <- t.counters.readmits + 1;
    Scotch.readmit_vswitch t.app dpid
  | None -> ()

(* Data-path (forwarding) health: a member whose data breaker opens is
   removed from forwarding outright — unlike a control-axis ejection,
   which drains it from flow-setup duty while it keeps forwarding. *)
let feed_data_probe t dpid probe =
  let _, data = breaker_of t dpid in
  match Breaker.observe data ~now:(now t) probe with
  | Some Breaker.Ejected ->
    t.counters.data_ejects <- t.counters.data_ejects + 1;
    Scotch.fail_vswitch t.app dpid
  | Some Breaker.Readmitted -> Scotch.revive_vswitch t.app dpid
  | None -> ()

(* Probe every registered vswitch the heartbeat still considers alive.
   Quarantined members are probed too — that is the half-open path
   back into the pool. *)
let probe_pool t =
  List.iter
    (fun dpid ->
      match Scotch.vswitch_handle_of t.app dpid with
      | sw when sw.C.alive ->
        let sent = now t in
        t.counters.probes_sent <- t.counters.probes_sent + 1;
        C.request ~deadline:probe_timeout
          ~on_timeout:(fun () -> feed_probe t dpid Breaker.Timeout)
          t.ctrl sw Scotch_openflow.Of_msg.Echo_request
          (fun _ -> feed_probe t dpid (Breaker.Reply (now t -. sent)));
        (match t.config.data_probe with
        | None -> ()
        | Some f -> feed_data_probe t dpid (f dpid))
      | _ -> ()
      | exception Not_found -> ())
    (Scotch.vswitch_dpids t.app)

(* Standby candidate for promotion: lowest-dpid alive, non-quarantined
   backup. *)
let standby_candidate t =
  let ov = Scotch.overlay t.app in
  List.fold_left
    (fun acc dpid ->
      match acc with
      | Some _ -> acc
      | None -> (
        match Overlay.vswitch ov dpid with
        | Some v
          when v.Overlay.alive && v.Overlay.is_backup && not v.Overlay.quarantined ->
          Some dpid
        | _ -> None))
    None
    (Scotch.vswitch_dpids t.app)

(* Record one autoscaler action, with its obs footprint: an
   "elastic.decision" trace instant carrying the pool size the
   decision ran against, and a (dir, pool)-labelled action counter —
   the pool dimension ROADMAP reserved part of the obs headroom for. *)
let record_action t dir ~pool dpid =
  t.last_action <- now t;
  t.actions_rev <- { time = now t; dir } :: t.actions_rev;
  if Scotch_obs.Obs.is_enabled () then begin
    let dir_s = match dir with `Up -> "up" | `Down -> "down" in
    let c =
      match Hashtbl.find_opt t.action_c (dir_s, pool) with
      | Some c -> c
      | None ->
        let c =
          Scotch_obs.Obs.counter ~help:"Autoscaler actions by direction and pool size"
            ~labels:[ ("dir", dir_s); ("pool", string_of_int pool) ]
            "scotch_elastic_actions_total"
        in
        Hashtbl.replace t.action_c (dir_s, pool) c;
        c
    in
    Scotch_obs.Registry.incr c;
    Scotch_obs.Obs.instant ~name:"elastic.decision" ~cat:"elastic" ~ts:(now t) ~tid:dpid
      ~args:
        [ ("dir", dir_s); ("dpid", string_of_int dpid);
          ("pool", string_of_int pool) ]
  end

let scale_up t ~pool =
  match standby_candidate t with
  | Some dpid ->
    t.counters.scale_ups <- t.counters.scale_ups + 1;
    Scotch.promote_vswitch t.app dpid;
    record_action t `Up ~pool dpid
  | None -> (
    match t.provision with
    | None -> ()
    | Some f -> (
      match f () with
      | Some sw ->
        t.counters.scale_ups <- t.counters.scale_ups + 1;
        record_action t `Up ~pool sw.C.dpid
      | None -> ()))

let scale_down t ~pool =
  match List.rev (Overlay.active_vswitches (Scotch.overlay t.app)) with
  | [] -> ()
  | v :: _ ->
    let dpid = Switch.dpid v.Overlay.vsw in
    t.counters.scale_downs <- t.counters.scale_downs + 1;
    Scotch.demote_vswitch t.app dpid;
    record_action t `Down ~pool dpid

let autoscale_tick t =
  let ov = Scotch.overlay t.app in
  let active = Overlay.active_vswitches ov in
  let n = List.length active in
  let util, fresh_shed =
    match t.config.tenant_shares with
    | [] ->
      (* demand: every alive member's Packet-In rate — quarantined and
         draining members still carry flows whose load would shift onto
         the active set *)
      let demand =
        List.fold_left
          (fun acc dpid ->
            match Scotch.vswitch_handle_of t.app dpid with
            | sw when sw.C.alive -> acc +. C.pin_rate t.ctrl sw
            | _ -> acc
            | exception Not_found -> acc)
          0.0
          (Scotch.vswitch_dpids t.app)
      in
      let util =
        if n = 0 then if demand > 0.0 then infinity else 0.0
        else demand /. (float_of_int n *. t.config.vswitch_capacity)
      in
      (* admission-layer shedding across the managed switches and the
         pool: any fresh shedding means demand already exceeds what the
         pool absorbs, whatever the meters say *)
      let shed = Scotch.admission_sum t.app ~sched:Sched.shed_total ~ofa:Ofa.shed_total in
      let fresh_shed = shed - t.last_shed in
      t.last_shed <- shed;
      (util, fresh_shed)
    | shares ->
      (* Per-tenant view: each tenant's demand counts toward scaling
         only up to its entitlement (its share of the maximum pool
         capacity), and shedding only triggers scale-up for tenants
         operating within entitlement — an attacker flooding past its
         share sheds its own flows without buying the pool any growth
         or starving the victims' headroom. *)
      let total_share = List.fold_left (fun acc (_, s) -> acc + Stdlib.max 1 s) 0 shares in
      let cap = float_of_int t.config.max_pool *. t.config.vswitch_capacity in
      let demand, fresh =
        List.fold_left
          (fun (d_acc, f_acc) (tenant, share) ->
            let entitlement =
              cap *. float_of_int (Stdlib.max 1 share) /. float_of_int total_share
            in
            let pins =
              Scotch.admission_sum t.app ~sched:(fun _ -> 0) ~ofa:(fun o ->
                  Admission.submitted (Ofa.admission o) ~tenant)
            in
            let last_pins =
              Option.value (Hashtbl.find_opt t.last_tenant_pins tenant) ~default:0
            in
            Hashtbl.replace t.last_tenant_pins tenant pins;
            let rate = float_of_int (pins - last_pins) /. probe_period in
            let shed =
              Scotch.admission_sum t.app
                ~sched:(fun s -> Admission.shed (Sched.admission s) ~tenant)
                ~ofa:(fun o -> Admission.shed (Ofa.admission o) ~tenant)
            in
            let last_shed =
              Option.value (Hashtbl.find_opt t.last_tenant_shed tenant) ~default:0
            in
            Hashtbl.replace t.last_tenant_shed tenant shed;
            let fresh = shed - last_shed in
            let within_entitlement = rate <= entitlement in
            ( d_acc +. Float.min rate entitlement,
              f_acc + (if within_entitlement then fresh else 0) ))
          (0.0, 0) shares
      in
      let util =
        if n = 0 then if demand > 0.0 then infinity else 0.0
        else demand /. (float_of_int n *. t.config.vswitch_capacity)
      in
      (util, fresh)
  in
  t.last_util <- util;
  let overloaded = util > high_water || fresh_shed > 0 in
  let idle = util < t.config.low_water && fresh_shed = 0 in
  if overloaded then begin
    t.up_streak <- t.up_streak + 1;
    t.down_streak <- 0
  end
  else if idle then begin
    t.down_streak <- t.down_streak + 1;
    t.up_streak <- 0
  end
  else begin
    t.up_streak <- 0;
    t.down_streak <- 0
  end;
  let cooled = now t -. t.last_action >= cooldown in
  if t.up_streak >= sustain_up && cooled && n < t.config.max_pool
  then begin
    scale_up t ~pool:n;
    t.up_streak <- 0
  end
  else if t.down_streak >= t.config.sustain_down && cooled && n > t.config.min_pool
  then begin
    scale_down t ~pool:n;
    t.down_streak <- 0
  end

(** Launch the control loop.  Idempotent.  Taking ownership of the
    pool benches the standbys: from here on, only promotion puts a
    backup into select-group rotation. *)
let start t =
  match t.stop with
  | Some _ -> ()
  | None ->
    Scotch.bench_standbys t.app true;
    let stop =
      Scotch_sim.Engine.every (engine t) ~period:probe_period (fun () ->
          probe_pool t;
          autoscale_tick t)
    in
    t.stop <- Some stop

(** Stop the loop and hand the pool back: standbys resume plain
    load-sharing failover duty. *)
let stop t =
  match t.stop with
  | None -> ()
  | Some f ->
    f ();
    Scotch.bench_standbys t.app false;
    t.stop <- None
