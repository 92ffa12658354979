(** The fault injector: executes a {!Plan.t} against a running Scotch
    deployment and fills a recovery {!Ledger.t}.

    The injector is driven entirely by the existing
    {!Scotch_sim.Engine} — every injection, recovery and probe is an
    ordinary simulation event, so a faulted run is exactly as
    deterministic as a clean one.

    Hooks used, per fault kind:
    - vswitch crash → {!Scotch_switch.Switch.set_failed} (both planes
      die); detection rides the §5.6 heartbeat: the injector registers
      its own controller app whose [switch_dead] callback timestamps
      the loss, then a fine-grained probe watches the {e devices'}
      group tables until no select bucket references an uplink tunnel
      of the dead vswitch — that is the real, propagation-included
      time-to-rebalance.  Recovery revives the device and rejoins it as
      a backup ({!Scotch_core.Overlay.mark_recovered}).
    - OFA slowdown / stall → {!Scotch_switch.Ofa.set_slowdown} /
      {!Scotch_switch.Ofa.stall}.
    - channel delay / drop →
      {!Scotch_controller.Controller.set_channel_impairment}.
    - channel dup / reorder →
      {!Scotch_controller.Controller.set_channel_chaos}.
    - link flap → {!Scotch_sim.Link.set_up} on the (switch, port) link.
    - stats-polling outage →
      {!Scotch_core.Scotch.set_stats_polling}. *)

open Scotch_switch
open Scotch_core
module C = Scotch_controller.Controller

(** How often the rebalance probe looks at the group tables.  Fine
    enough that time-to-rebalance is resolved well below the heartbeat
    period, coarse enough to stay cheap. *)
let probe_period = 0.05

(** Stair steps of a {!Fault.Vswitch_degrade} ramp. *)
let degrade_steps = 8

type env = {
  engine : Scotch_sim.Engine.t;
  ctrl : C.t;
  app : Scotch.t;
  flood : (tenant:int -> rate:float -> active:bool -> unit) option;
      (* drives the experiment's attack traffic source for
         {!Fault.Tenant_flood} faults; [None] makes them no-ops *)
}

(** Build an injection environment from a controller and its Scotch
    app (the engine and topology come from the controller).  [flood],
    when given, is called with [active:true] at a
    {!Fault.Tenant_flood}'s injection time and [active:false] at its
    clear — the experiment wires it to its attack traffic source. *)
let env ?flood ~ctrl ~app () = { engine = C.engine ctrl; ctrl; app; flood }

type pending_crash = {
  record : Ledger.record;
  dead_dpid : int;
  flows_lost_at_inject : int;
  backups_at_inject : int list; (* backup dpids before the kill *)
}

type t = {
  e : env;
  ledger : Ledger.t;
  awaiting : (int, pending_crash) Hashtbl.t; (* dead dpid -> pending crash *)
  active : (int * Fault.kind, int) Hashtbl.t;
      (* (target, kind) -> number of live injections.  Duplicate
         injection of the same fault on the same target is idempotent:
         the side effect is applied on the 0->1 transition only, and
         undone on the 1->0 transition only, so an early clear of one
         copy cannot yank the state out from under the other. *)
}

let live_count t key = Option.value ~default:0 (Hashtbl.find_opt t.active key)

let now t = Scotch_sim.Engine.now t.e.engine

let device t dpid =
  match Scotch_topo.Topology.switch (C.topo t.e.ctrl) dpid with
  | Some dev -> dev
  | None -> invalid_arg (Printf.sprintf "Injector: no switch with dpid %d" dpid)

let handle t dpid =
  match C.switch t.e.ctrl dpid with
  | Some sw -> sw
  | None -> invalid_arg (Printf.sprintf "Injector: dpid %d not connected to the controller" dpid)

(** Flows/packets lost so far on account of [dead]: flows the app shed
    or could not route, plus packets blackholed into the dead device
    itself (traffic still balanced onto the corpse — the misrouting the
    rebalance is racing to stop). *)
let flows_lost_counter t ~dead =
  let c = Scotch.counters t.e.app in
  c.Scotch.flows_dropped + c.Scotch.flows_unroutable
  + (Switch.counters (device t dead)).Switch.dropped_action

let backup_dpids t =
  let acc = ref [] in
  Overlay.iter_vswitches (Scotch.overlay t.e.app) (fun v ->
      if v.Overlay.alive && v.Overlay.is_backup then acc := Switch.dpid v.Overlay.vsw :: !acc);
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Rebalance probing *)

(** Tunnel ports that lead from [phys] to the dead vswitch — the ports
    whose presence in a select bucket means the group still balances
    onto the corpse. *)
let dead_ports_of t ~phys ~dead =
  Overlay.uplinks_of (Scotch.overlay t.e.app) phys
  |> List.filter_map (fun (vdpid, tid) ->
         if vdpid = dead then Some (Scotch_topo.Topology.tunnel_port_of_id tid) else None)

let bucket_outputs (b : Scotch_openflow.Of_msg.Group_mod.bucket) =
  List.filter_map
    (function
      | Scotch_openflow.Of_action.Output (Scotch_openflow.Of_types.Port_no.Physical p) -> Some p
      | _ -> None)
    b.Scotch_openflow.Of_msg.Group_mod.actions

(** Does any select group installed in [phys]'s {e device} still have a
    bucket pointing at the dead vswitch?  Checked on the device rather
    than on controller state, so the measured time includes channel and
    OFA propagation of the Group_mod. *)
let group_references_dead t ~phys ~dead =
  let ports = dead_ports_of t ~phys ~dead in
  if ports = [] then false
  else begin
    List.exists
      (fun (g : Group_table.group) ->
        List.exists
          (fun b -> List.exists (fun p -> List.mem p ports) (bucket_outputs b))
          g.Group_table.buckets)
      (Group_table.groups (Switch.group_table (device t phys)))
  end

let rebalance_done t ~dead =
  List.for_all (fun phys -> not (group_references_dead t ~phys ~dead))
    (Scotch.managed_dpids t.e.app)

let rec watch_rebalance t (p : pending_crash) =
  if p.record.Ledger.rebalanced_at = None then begin
    if rebalance_done t ~dead:p.dead_dpid then begin
      p.record.Ledger.rebalanced_at <- Some (now t);
      p.record.Ledger.flows_lost <- flows_lost_counter t ~dead:p.dead_dpid - p.flows_lost_at_inject
    end
    else
      ignore
        (Scotch_sim.Engine.schedule t.e.engine ~delay:probe_period (fun () ->
             watch_rebalance t p))
  end

(* ------------------------------------------------------------------ *)
(* Detection (the controller app) *)

let on_switch_dead t (sw : C.sw) =
  match Hashtbl.find_opt t.awaiting sw.C.dpid with
  | None -> () (* a death we did not inject (or already handled) *)
  | Some p ->
    Hashtbl.remove t.awaiting sw.C.dpid;
    p.record.Ledger.detected_at <- Some (now t);
    (* a backup that was on the bench at injection and is in active
       duty now was promoted to replace this corpse (§5.6) *)
    let still_backup = backup_dpids t in
    (match List.find_opt (fun d -> not (List.mem d still_backup)) p.backups_at_inject with
    | Some d -> p.record.Ledger.backup_promoted <- Some d
    | None -> ());
    watch_rebalance t p

(* ------------------------------------------------------------------ *)
(* Injection and clearing, per kind *)

let clear t (f : Fault.t) (r : Ledger.record) =
  Scotch_obs.Registry.incr
    (Scotch_obs.Obs.counter ~help:"Faults cleared"
       ~labels:[ ("kind", Fault.kind_label f.Fault.kind) ]
       "scotch_fault_clears_total");
  if Scotch_obs.Obs.is_enabled () then
    Scotch_obs.Obs.instant ~name:"fault.clear" ~cat:"fault" ~ts:(now t) ~tid:f.Fault.target
      ~args:[ ("fault", Fault.label f) ];
  let key = (f.Fault.target, f.Fault.kind) in
  let live = max 0 (live_count t key - 1) in
  if live = 0 then Hashtbl.remove t.active key else Hashtbl.replace t.active key live;
  if live > 0 then r.Ledger.cleared_at <- Some (now t)
  else begin
  (match f.Fault.kind with
  | Fault.Vswitch_crash ->
    let dev = device t f.Fault.target in
    Switch.set_failed dev false;
    Overlay.mark_recovered (Scotch.overlay t.e.app) f.Fault.target;
    (* revived before the heartbeat ever noticed: stop waiting *)
    Hashtbl.remove t.awaiting f.Fault.target;
    (* the repair happened behind the app's back: announce it so
       continuous verification can lint the rebuilt state *)
    Scotch.notify_recovery t.e.app
  | Fault.Ofa_slowdown _ -> Ofa.set_slowdown (Switch.ofa (device t f.Fault.target)) 1.0
  | Fault.Ofa_stall -> () (* the stall deadline passes by itself *)
  | Fault.Channel_delay _ ->
    let sw = handle t f.Fault.target in
    C.set_channel_impairment sw ~extra_latency:0.0 ~drop_p:sw.C.chan_drop_p
  | Fault.Channel_drop _ ->
    let sw = handle t f.Fault.target in
    C.set_channel_impairment sw ~extra_latency:sw.C.chan_extra_latency ~drop_p:0.0
  | Fault.Channel_dup _ ->
    let sw = handle t f.Fault.target in
    C.set_channel_chaos sw ~dup_p:0.0 ~reorder_p:sw.C.chan_reorder_p
  | Fault.Channel_reorder _ ->
    let sw = handle t f.Fault.target in
    C.set_channel_chaos sw ~dup_p:sw.C.chan_dup_p ~reorder_p:0.0
  | Fault.Link_down port -> (
    match Switch.link_of_port (device t f.Fault.target) port with
    | Some link -> Scotch_sim.Link.set_up link true
    | None -> ())
  | Fault.Stats_outage -> Scotch.set_stats_polling t.e.app true
  | Fault.Vswitch_degrade _ -> Ofa.set_slowdown (Switch.ofa (device t f.Fault.target)) 1.0
  | Fault.Controller_pause -> () (* the pause deadline passes by itself *)
  | Fault.Tenant_flood rate -> (
    match t.e.flood with
    | Some drive -> drive ~tenant:f.Fault.target ~rate ~active:false
    | None -> ()));
  r.Ledger.cleared_at <- Some (now t)
  end

let inject t (id, (f : Fault.t)) =
  let r = Ledger.add t.ledger ~id ~label:(Fault.label f) ~injected_at:f.Fault.at in
  (* handle resolved at plan-schedule time, not when the fault fires *)
  let injections_c =
    Scotch_obs.Obs.counter ~help:"Faults injected"
      ~labels:[ ("kind", Fault.kind_label f.Fault.kind) ]
      "scotch_fault_injections_total"
  in
  let fire () =
    Scotch_obs.Registry.incr injections_c;
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:"fault.inject" ~cat:"fault" ~ts:(now t) ~tid:f.Fault.target
        ~args:[ ("fault", Fault.label f) ];
    let key = (f.Fault.target, f.Fault.kind) in
    let live = live_count t key in
    Hashtbl.replace t.active key (live + 1);
    if live > 0 then () (* already in force: duplicate injection is a no-op *)
    else
    match f.Fault.kind with
    | Fault.Vswitch_crash ->
      let dev = device t f.Fault.target in
      Hashtbl.replace t.awaiting f.Fault.target
        { record = r; dead_dpid = f.Fault.target;
          flows_lost_at_inject = flows_lost_counter t ~dead:f.Fault.target;
          backups_at_inject = backup_dpids t };
      Switch.set_failed dev true
    | Fault.Ofa_slowdown factor -> Ofa.set_slowdown (Switch.ofa (device t f.Fault.target)) factor
    | Fault.Ofa_stall -> Ofa.stall (Switch.ofa (device t f.Fault.target)) ~until:(Fault.ends_at f)
    | Fault.Channel_delay extra ->
      let sw = handle t f.Fault.target in
      C.set_channel_impairment sw ~extra_latency:extra ~drop_p:sw.C.chan_drop_p
    | Fault.Channel_drop p ->
      let sw = handle t f.Fault.target in
      C.set_channel_impairment sw ~extra_latency:sw.C.chan_extra_latency ~drop_p:p
    | Fault.Channel_dup p ->
      let sw = handle t f.Fault.target in
      C.set_channel_chaos sw ~dup_p:p ~reorder_p:sw.C.chan_reorder_p
    | Fault.Channel_reorder p ->
      let sw = handle t f.Fault.target in
      C.set_channel_chaos sw ~dup_p:sw.C.chan_dup_p ~reorder_p:p
    | Fault.Link_down port -> (
      match Switch.link_of_port (device t f.Fault.target) port with
      | Some link -> Scotch_sim.Link.set_up link false
      | None -> ())
    | Fault.Stats_outage -> Scotch.set_stats_polling t.e.app false
    | Fault.Vswitch_degrade peak ->
      (* gray failure: ramp service-time inflation in [degrade_steps]
         stair steps across the window, peaking at [peak]x and snapping
         back at clear — gradual enough that the heartbeat never
         misses, only the breaker's RTT probes see it coming *)
      let ofa = Switch.ofa (device t f.Fault.target) in
      let steps = degrade_steps in
      Ofa.set_slowdown ofa (1.0 +. ((peak -. 1.0) /. float_of_int steps));
      for k = 2 to steps do
        let frac = float_of_int k /. float_of_int steps in
        (* reach the peak at 80% of the window, hold, then clear *)
        let at = f.Fault.at +. (frac *. f.Fault.duration *. 0.8) in
        let factor = 1.0 +. ((peak -. 1.0) *. frac) in
        ignore
          (Scotch_sim.Engine.schedule_at t.e.engine ~at (fun () ->
               Ofa.set_slowdown ofa factor))
      done
    | Fault.Controller_pause -> C.pause t.e.ctrl ~until:(Fault.ends_at f)
    | Fault.Tenant_flood rate -> (
      match t.e.flood with
      | Some drive -> drive ~tenant:f.Fault.target ~rate ~active:true
      | None -> ())
  in
  ignore (Scotch_sim.Engine.schedule_at t.e.engine ~at:f.Fault.at fire);
  if Fault.ends_at f < infinity then
    ignore
      (Scotch_sim.Engine.schedule_at t.e.engine ~at:(Fault.ends_at f) (fun () -> clear t f r))

(* ------------------------------------------------------------------ *)

(** [run env plan] schedules every fault of [plan] on the engine and
    registers the detection app with the controller (register the
    Scotch app {e first} so §5.6 failover has already run when the
    injector timestamps the detection).  Returns the ledger, which
    fills in as simulation time passes the plan's events; read it after
    {!Scotch_sim.Engine.run}. *)
let run env plan =
  let t =
    { e = env; ledger = Ledger.create (); awaiting = Hashtbl.create 8;
      active = Hashtbl.create 16 }
  in
  C.register_app env.ctrl
    (C.app ~switch_dead:(fun sw -> on_switch_dead t sw) ());
  List.iter (inject t) (Plan.faults plan);
  t.ledger
