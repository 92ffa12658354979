(** Reusable testbeds.

    {!single} reproduces Fig. 2: one switch under test with a client, an
    attacker and a server on data ports and the controller on the
    management port, running the plain reactive controller.

    {!scotch_net} is the Scotch evaluation network: two managed physical
    switches (ingress edge and server-side), hosts, a pool of overlay
    vswitches with full mesh and delivery tunnels, and the Scotch
    application. *)

open Scotch_switch
open Scotch_topo
open Scotch_workload
open Scotch_util
module C = Scotch_controller.Controller

let control_latency = 0.5e-3 (* 1 GbE management network, one way *)

(** {1 Fig. 2 testbed} *)

type single = {
  engine : Scotch_sim.Engine.t;
  switch : Switch.t;
  ctrl : C.t;
  sw_handle : C.sw;
  server : Host.t;
  client_src : Source.t;
  attacker_src : Source.t;
}

let client_port = 1
let attacker_port = 2
let server_port = 3

(** [single ~profile ~client_rate ~attack_rate ()] builds the Fig. 2
    testbed.  Sources are created but not started. *)
let single ?(seed = 42) ~profile ~client_rate ~attack_rate () =
  let engine = Scotch_sim.Engine.create ~seed () in
  let topo = Topology.create engine in
  let switch = Switch.create engine ~dpid:1 ~name:"dut" ~profile () in
  Topology.add_switch topo switch;
  let client = Host.create engine ~id:1 ~name:"client" in
  let attacker = Host.create engine ~id:2 ~name:"attacker" in
  let server = Host.create engine ~id:3 ~name:"server" in
  List.iter (Topology.add_host topo) [ client; attacker; server ];
  Topology.attach_host topo client switch ~port:client_port;
  Topology.attach_host topo attacker switch ~port:attacker_port;
  Topology.attach_host topo server switch ~port:server_port;
  let ctrl = C.create engine topo in
  let routing = Scotch_controller.Routing.create ctrl in
  C.register_app ctrl (Scotch_controller.Routing.app routing);
  let sw_handle = C.connect ctrl switch ~latency:control_latency in
  Scotch_controller.Routing.install_table_miss ctrl sw_handle;
  let rng = Scotch_sim.Engine.rng engine in
  let client_src =
    Source.create engine ~rng:(Rng.split rng) ~host:client ~dst:server ~rate:client_rate ()
  in
  let attacker_src =
    Source.create engine ~rng:(Rng.split rng) ~host:attacker ~dst:server ~rate:attack_rate
      ~spoof_sources:true ()
  in
  { engine; switch; ctrl; sw_handle; server; client_src; attacker_src }

(** {1 Scotch evaluation network} *)

type scotch_net = {
  engine : Scotch_sim.Engine.t;
  topo : Topology.t;
  ctrl : C.t;
  app : Scotch_core.Scotch.t;
  overlay : Scotch_core.Overlay.t;
  policy : Scotch_core.Policy.t;
  edge : Switch.t;              (* dpid 1: clients + attacker attach here *)
  server_sw : Switch.t;         (* dpid 2: the server's switch *)
  vswitches : Switch.t array;   (* dpids 100.. *)
  clients : Host.t array;       (* ports 1..n on the edge switch *)
  attacker : Host.t;            (* port 99 on the edge switch *)
  servers : Host.t array;       (* ports 1..k on the server switch *)
  server : Host.t;              (* servers.(0) *)
  verify : Scotch_verify.Hooks.t option;
  reliable : Scotch_reliable.Reliable.t option;
      (* the reliable control-channel layer, when built with ~reconcile *)
}

let edge_dpid = 1
let server_dpid = 2
let attacker_edge_port = 99
let vswitch_dpid i = 100 + i

(* Register and start the Scotch app; the verifier hooks are a no-op
   unless the config asks for Continuous verification. *)
let start_scotch ~engine ~topo ctrl app ~managed ~vswitches =
  C.register_app ctrl (Scotch_core.Scotch.app app);
  List.iter
    (fun sw -> ignore (Scotch_core.Scotch.manage_switch app sw ~channel_latency:control_latency))
    managed;
  Array.iter
    (fun v -> ignore (Scotch_core.Scotch.register_vswitch app v ~channel_latency:control_latency))
    vswitches;
  Scotch_core.Scotch.start app;
  Scotch_verify.Hooks.install ~engine ~topo app

(** [scotch_net ()] builds the evaluation network:
    - edge and server-side Pica8 physical switches, linked;
    - [num_clients] client hosts and the attacker on the edge switch;
    - the server behind the server-side switch;
    - [num_vswitches] active + [num_backups] backup overlay vswitches,
      fully meshed, each with uplink tunnels from both physical switches
      and delivery tunnels to every host;
    - controller with the Scotch app registered and started.

    With [~reconcile:true] the app routes every Flow/Group-mod through a
    reliable control-channel layer (intent store + barrier-acked
    transactions) whose anti-entropy reconciler owns all of Scotch's
    rule cookies; {!Scotch_core.Scotch.start} launches it. *)
let scotch_net ?(seed = 42) ?(vswitch_profile = Profile.scotch_vswitch)
    ?(config = Scotch_core.Config.default) ?(num_vswitches = 4) ?(num_backups = 0)
    ?(num_clients = 1) ?(num_servers = 1) ?(scotch_enabled = true) ?(reconcile = false) () =
  let engine = Scotch_sim.Engine.create ~seed () in
  let topo = Topology.create engine in
  let profile = Profile.pica8 in
  let edge = Switch.create engine ~dpid:edge_dpid ~name:"edge" ~profile () in
  let server_sw = Switch.create engine ~dpid:server_dpid ~name:"server-sw" ~profile () in
  Topology.add_switch topo edge;
  Topology.add_switch topo server_sw;
  Topology.link_switches topo (edge, 50) (server_sw, 50);
  let clients =
    Array.init num_clients (fun i ->
        let h = Host.create engine ~id:(1 + i) ~name:(Printf.sprintf "client%d" i) in
        Topology.add_host topo h;
        Topology.attach_host topo h edge ~port:(1 + i);
        h)
  in
  let attacker = Host.create engine ~id:99 ~name:"attacker" in
  Topology.add_host topo attacker;
  Topology.attach_host topo attacker edge ~port:attacker_edge_port;
  let servers =
    Array.init num_servers (fun i ->
        let h = Host.create engine ~id:(200 + i) ~name:(Printf.sprintf "server%d" i) in
        Topology.add_host topo h;
        Topology.attach_host topo h server_sw ~port:(1 + i);
        h)
  in
  let server = servers.(0) in
  (* overlay *)
  let overlay = Scotch_core.Overlay.create topo in
  let total_vsw = num_vswitches + num_backups in
  let vswitches =
    Array.init total_vsw (fun i ->
        let v =
          Switch.create engine ~dpid:(vswitch_dpid i)
            ~name:(Printf.sprintf "vsw%d" i)
            ~profile:vswitch_profile ()
        in
        Topology.add_switch topo v;
        Scotch_core.Overlay.add_vswitch overlay v ~backup:(i >= num_vswitches);
        v)
  in
  Array.iter
    (fun v ->
      Scotch_core.Overlay.connect_switch overlay edge
        ~to_vswitches:[ Switch.dpid v ]
      |> ignore;
      Scotch_core.Overlay.connect_switch overlay server_sw ~to_vswitches:[ Switch.dpid v ])
    vswitches;
  (* every vswitch can deliver to every host; the last registration wins
     as primary cover, so register round-robin primary last *)
  let all_hosts = Array.concat [ clients; [| attacker |]; servers ] in
  Array.iter
    (fun h ->
      Array.iter
        (fun v -> Scotch_core.Overlay.cover_host overlay ~vswitch_dpid:(Switch.dpid v) h)
        vswitches;
      (* primary cover: round-robin over the active pool *)
      let primary = Host.id h mod num_vswitches in
      Scotch_core.Overlay.cover_host overlay ~vswitch_dpid:(vswitch_dpid primary) h)
    all_hosts;
  (* controller + scotch app *)
  let ctrl = C.create engine topo in
  let policy = Scotch_core.Policy.create topo in
  let reliable =
    if reconcile && scotch_enabled then
      Some
        (Scotch_reliable.Reliable.create ~seed
           ~owned_cookies:
             [ Scotch_core.Config.cookie_miss; Scotch_core.Config.cookie_green;
               Scotch_core.Config.cookie_red; Scotch_core.Config.cookie_vflow ]
           ctrl)
    else None
  in
  let app = Scotch_core.Scotch.create ?reliable ctrl overlay policy config in
  let verify =
    if scotch_enabled then
      start_scotch ~engine ~topo ctrl app ~managed:[ edge; server_sw ] ~vswitches
    else begin
      (* baseline: plain reactive routing, no overlay *)
      let routing = Scotch_controller.Routing.create ctrl in
      C.register_app ctrl (Scotch_controller.Routing.app routing);
      let e = C.connect ctrl edge ~latency:control_latency in
      let s = C.connect ctrl server_sw ~latency:control_latency in
      Scotch_controller.Routing.install_table_miss ctrl e;
      Scotch_controller.Routing.install_table_miss ctrl s;
      None
    end
  in
  (* engine-level gauges for the whole net (replaced on rebuild, so the
     latest net owns them) *)
  let module O = Scotch_obs.Obs in
  O.gauge_fn ~help:"Simulation events processed" "scotch_engine_events_processed"
    (fun () -> float_of_int (Scotch_sim.Engine.processed engine));
  O.gauge_fn ~help:"Simulation events pending" "scotch_engine_events_pending"
    (fun () -> float_of_int (Scotch_sim.Engine.pending engine));
  O.gauge_fn ~help:"Virtual time (seconds)" "scotch_engine_now"
    (fun () -> Scotch_sim.Engine.now engine);
  { engine; topo; ctrl; app; overlay; policy; edge; server_sw; vswitches; clients; attacker;
    servers; server; verify; reliable }

(** A client traffic source on client [i]. *)
let client_source (net : scotch_net) ~i ~rate ?spec_of () =
  let rng = Rng.split (Scotch_sim.Engine.rng net.engine) in
  Source.create net.engine ~rng ~host:net.clients.(i) ~dst:net.server ~rate ?spec_of ()

(** A spoofed-source flood, by default from the attacker to the first
    server. *)
let attack_source (net : scotch_net) ?(host = net.attacker) ?(dst = net.server) ~rate () =
  let rng = Rng.split (Scotch_sim.Engine.rng net.engine) in
  Source.create net.engine ~rng ~host ~dst ~rate ~spoof_sources:true ()

(** An unstarted attacker and the Injector's flood hook. *)
let flood_source (net : scotch_net) =
  let atk = attack_source net ~rate:1.0 () in
  let flood ~tenant:_ ~rate ~active =
    if active then begin
      Source.set_rate atk rate;
      Source.start atk
    end
    else Source.stop atk
  in
  (atk, flood)

(** Run the simulation to absolute time [until]. *)
let run_until (net : scotch_net) ~until = Scotch_sim.Engine.run ~until net.engine

(** Flows first seen at any server between [warmup] and [until], per second. *)
let served_rate (net : scotch_net) ~warmup ~until =
  let seen () = Array.fold_left (fun acc s -> acc + Host.flows_seen s) 0 net.servers in
  run_until net ~until:warmup;
  let before = seen () in
  run_until net ~until;
  float_of_int (seen () - before) /. (until -. warmup)

(** {1 Trace replay and its harvest} *)

type replay = {
  trace : Tracegen.flow_event list;
  launched : Flow_gen.launched option array;
}

(** Replay [params]'s trace, generated from [Rng.create (seed + 17)]. *)
let replay_trace (net : scotch_net) ~seed (params : Tracegen.params) =
  let trace = Tracegen.generate (Rng.create (seed + 17)) params in
  let sources =
    Array.init params.Tracegen.num_sources (fun i ->
        client_source net ~i ~rate:1.0 ())
  in
  { trace; launched = Tracegen.replay net.engine trace ~sources ~destinations:net.servers }

(** [(launch time, delivered)] of every launched flow, in trace order. *)
let harvest (net : scotch_net) r =
  List.concat
    (List.mapi
       (fun i (ev : Tracegen.flow_event) ->
         match r.launched.(i) with
         | None -> []
         | Some l ->
           [ (ev.Tracegen.at,
              Host.flow_record net.servers.(ev.Tracegen.dst) l.Flow_gen.flow_id <> None) ])
       r.trace)

(** Per-bin delivery fraction; launches at or after [until] count in no bin. *)
let success_bins ~bin_width ~until flows =
  let nbins = int_of_float (until /. bin_width) + 1 in
  let total = Array.make nbins 0 and ok = Array.make nbins 0 in
  List.iter
    (fun (at, delivered) ->
      if at < until then begin
        let bin = int_of_float (at /. bin_width) in
        total.(bin) <- total.(bin) + 1;
        if delivered then ok.(bin) <- ok.(bin) + 1
      end)
    flows;
  List.filter_map
    (fun bin ->
      if total.(bin) = 0 then None
      else
        Some (float_of_int bin *. bin_width, float_of_int ok.(bin) /. float_of_int total.(bin)))
    (List.init nbins Fun.id)

(** Exact p99 admitted-flow decision latency from the obs trace: the
    core's decision histogram saturates at its 0.5 s cap under
    overload, so the spans are the honest source. *)
let decision_p99 ?tenant () =
  let module T = Scotch_obs.Trace in
  let admitted (e : T.event) =
    e.T.name = "scotch.decision"
    && (match tenant with
       | None -> true
       | Some name -> List.assoc_opt "tenant" e.T.args = Some name)
    &&
    match List.assoc_opt "outcome" e.T.args with
    | Some ("overlay" | "physical") -> true
    | Some _ | None -> false
  in
  let durs =
    List.filter_map
      (fun e -> if admitted e then Some (float_of_int e.T.dur_ns *. 1e-9) else None)
      (T.events (Scotch_obs.Obs.tracer ()))
  in
  match List.sort compare durs with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    Some (List.nth sorted (Stdlib.min (n - 1) (int_of_float (float_of_int n *. 0.99))))

(** [add_firewall_segment net ~classify] inserts a stateful firewall
    between the edge switch (S_U, port 70) and the server-side switch
    (S_D, in-port 70), registers the policy segment with its overlay
    attachment tunnels, installs the shared green rules and sets the
    flow classifier (§5.4).  Returns the middlebox and segment. *)
let add_firewall_segment (net : scotch_net) ~classify =
  let mb = Middlebox.create net.engine () in
  Topology.insert_middlebox net.topo mb ~upstream:(net.edge, 70)
    ~downstream:(net.server_sw, 70);
  let seg =
    Scotch_core.Policy.add_segment net.policy net.overlay ~name:"fw0"
      ~s_u:edge_dpid ~s_u_mb_port:70 ~s_d:server_dpid ~s_d_mb_in_port:70
  in
  Scotch_core.Policy.set_classifier net.policy (fun key ->
      if classify key then Some seg else None);
  Scotch_core.Scotch.setup_policy_rules net.app;
  (mb, seg)

(** {1 Multi-rack leaf-spine fabric}

    The paper's motivating data-center setting (§4.1: "a pool of
    vswitches distributed across the SDN network, e.g., across
    different racks in the data center", with "two Scotch vswitches at
    each rack").  §1's key observation is that spreading new flows at
    the {e first-hop} switch is not enough: "the switch close to the
    destination will still be overloaded since rules have to be
    inserted there for each new flow" — which is why Scotch initially
    routes new flows entirely over the overlay. *)

type fabric = {
  f_engine : Scotch_sim.Engine.t;
  f_topo : Topology.t;
  f_ctrl : C.t;
  f_app : Scotch_core.Scotch.t;
  f_overlay : Scotch_core.Overlay.t;
  f_tors : Switch.t array;        (* dpid 1 + rack *)
  f_spines : Switch.t array;      (* dpid 50 + i *)
  f_hosts : Host.t array array;   (* per rack *)
  f_vswitches : Switch.t array;
  f_verify : Scotch_verify.Hooks.t option;
}

let tor_dpid rack = 1 + rack
let spine_dpid i = 50 + i
let fabric_host_id ~rack ~slot = 1 + (rack * 32) + slot
let num_spines = 2
let vswitches_per_rack = 2

(** [fabric ()] builds [num_racks] Pica8 ToR switches, each
    with [hosts_per_rack] hosts and two local Scotch vswitches, all
    ToRs linked to two spine switches, every vswitch meshed
    and uplinked from every ToR, hosts covered by their rack's
    vswitches.  All ToRs and spines are Scotch-managed. *)
let fabric ?(seed = 42) ?(config = Scotch_core.Config.default) ?(num_racks = 4)
    ?(hosts_per_rack = 4) ?(scotch_enabled = true) () =
  let engine = Scotch_sim.Engine.create ~seed () in
  let profile = Profile.pica8 in
  let topo = Topology.create engine in
  let tors =
    Array.init num_racks (fun r ->
        let sw =
          Switch.create engine ~dpid:(tor_dpid r) ~name:(Printf.sprintf "tor%d" r) ~profile ()
        in
        Topology.add_switch topo sw;
        sw)
  in
  let spines =
    Array.init num_spines (fun i ->
        let sw =
          Switch.create engine ~dpid:(spine_dpid i)
            ~name:(Printf.sprintf "spine%d" i)
            ~profile ()
        in
        Topology.add_switch topo sw;
        sw)
  in
  (* leaf-spine data links: ToR port 100+i to spine i; spine port 200+r
     back to rack r *)
  Array.iteri
    (fun r tor ->
      Array.iteri (fun i spine -> Topology.link_switches topo (tor, 100 + i) (spine, 200 + r))
        spines)
    tors;
  let hosts =
    Array.init num_racks (fun r ->
        Array.init hosts_per_rack (fun s ->
            let h =
              Host.create engine ~id:(fabric_host_id ~rack:r ~slot:s)
                ~name:(Printf.sprintf "h%d-%d" r s)
            in
            Topology.add_host topo h;
            Topology.attach_host topo h tors.(r) ~port:(1 + s);
            h))
  in
  let overlay = Scotch_core.Overlay.create topo in
  let vswitches =
    Array.init (num_racks * vswitches_per_rack) (fun i ->
        let v =
          Switch.create engine ~dpid:(100 + i)
            ~name:(Printf.sprintf "vsw%d" i)
            ~profile:Profile.scotch_vswitch ()
        in
        Topology.add_switch topo v;
        Scotch_core.Overlay.add_vswitch overlay v ~backup:false;
        v)
  in
  (* uplinks from every ToR and spine to every vswitch *)
  Array.iter
    (fun v ->
      Array.iter
        (fun tor -> Scotch_core.Overlay.connect_switch overlay tor ~to_vswitches:[ Switch.dpid v ])
        tors;
      Array.iter
        (fun sp -> Scotch_core.Overlay.connect_switch overlay sp ~to_vswitches:[ Switch.dpid v ])
        spines)
    vswitches;
  (* rack-local coverage: each host is covered by its rack's vswitches
     (the last registration is the primary) *)
  Array.iteri
    (fun r rack_hosts ->
      Array.iter
        (fun h ->
          for k = 0 to vswitches_per_rack - 1 do
            Scotch_core.Overlay.cover_host overlay
              ~vswitch_dpid:(Switch.dpid vswitches.((r * vswitches_per_rack) + k))
              h
          done)
        rack_hosts)
    hosts;
  let ctrl = C.create engine topo in
  let policy = Scotch_core.Policy.create topo in
  let app = Scotch_core.Scotch.create ctrl overlay policy config in
  let verify =
    if scotch_enabled then
      start_scotch ~engine ~topo ctrl app
        ~managed:(Array.to_list (Array.append tors spines))
        ~vswitches
    else begin
      let routing = Scotch_controller.Routing.create ctrl in
      C.register_app ctrl (Scotch_controller.Routing.app routing);
      Array.iter
        (fun sw ->
          let h = C.connect ctrl sw ~latency:control_latency in
          Scotch_controller.Routing.install_table_miss ctrl h)
        (Array.append tors spines);
      None
    end
  in
  { f_engine = engine; f_topo = topo; f_ctrl = ctrl; f_app = app; f_overlay = overlay;
    f_tors = tors; f_spines = spines; f_hosts = hosts; f_vswitches = vswitches;
    f_verify = verify }

(** A spoofed-source flood from host [src] toward host [dst]. *)
let fabric_attack fb ~src ~dst ~rate =
  let rng = Rng.split (Scotch_sim.Engine.rng fb.f_engine) in
  Source.create fb.f_engine ~rng ~host:src ~dst ~rate ~spoof_sources:true ()

(** A well-behaved client on the fabric. *)
let fabric_client fb ~src ~dst ~rate =
  let rng = Rng.split (Scotch_sim.Engine.rng fb.f_engine) in
  Source.create fb.f_engine ~rng ~host:src ~dst ~rate ()
