(** Ablations of Scotch's design choices (DESIGN.md §4).

    - {!run_lb}: select-group load balancing across the vswitch pool vs
      tunneling everything to a single vswitch (§5.1).
    - {!run_dedicated_port}: the alternative §4 rejects — forwarding new
      flows to the controller over a dedicated {e data-plane} port.  The
      control channel is no longer the bottleneck, but the physical
      switch can only absorb rule installs at R, so throughput caps
      orders of magnitude below Scotch.
    - {!run_withdrawal}: the §5.5 life cycle — the overlay activates
      when the attack starts and automatically phases out after it
      stops. *)

open Scotch_workload
open Scotch_core
open Scotch_openflow
module C = Scotch_controller.Controller

(** {1 Load balancing} *)

let lb_offered = 12000.0

let run_lb_point ?(seed = 42) ~per_switch ~duration () =
  let config =
    { Config.default with Config.vswitches_per_switch = per_switch; activate_pin_rate = 50.0 }
  in
  let net = Testbed.scotch_net ~seed ~config ~num_vswitches:4 ~num_servers:4 () in
  let rate = lb_offered /. 4.0 in
  let sources =
    Array.map (fun dst -> Testbed.attack_source net ~dst ~rate ()) net.Testbed.servers
  in
  Array.iter Source.start sources;
  Testbed.served_rate net ~warmup:1.5 ~until:duration

let run_lb ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max 3.0 (4.0 *. scale) in
  { Report.id = "ablation-lb";
    title =
      Printf.sprintf "Group-table load balancing vs a single uplink vswitch (offered %.0f fl/s)"
        lb_offered;
    x_label = "vswitches per select group";
    y_label = "successful new-flow rate (flows/s)";
    series =
      [ { Report.label = "Scotch";
          points =
            List.map (fun k -> (float_of_int k, run_lb_point ~seed ~per_switch:k ~duration ()))
              [ 1; 2; 4 ] } ] }

(** {1 Dedicated controller data port (§4's rejected alternative)} *)

let dedicated_rates = [ 100.; 200.; 500.; 1000.; 2000.; 5000. ]

(** New flows reach the controller via a data-plane port (no OFA on the
    way in), but rule installation is still paced at R so the switch's
    loss-free insertion rate is not exceeded (§6.1). *)
let run_dedicated_point ?(seed = 42) ~offered ~duration () =
  let net = Testbed.scotch_net ~seed ~scotch_enabled:false () in
  let r = Config.rule_rate in
  let edge_handle = C.switch_exn net.Testbed.ctrl Testbed.edge_dpid in
  let server_handle = C.switch_exn net.Testbed.ctrl Testbed.server_dpid in
  (* replace the table-miss rule: new flows exit via data port 60; the
     downstream switch keeps no miss rule (this design never uses the
     OFA Packet-In path at all).  Deferred past the testbed's own
     table-miss installs so the override wins deterministically. *)
  ignore
    (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:0.1 (fun () ->
         C.install net.Testbed.ctrl edge_handle ~table_id:0 ~priority:0
           ~match_:Of_match.wildcard
           ~instructions:(Of_action.output (Of_types.Port_no.Physical 60))
           ();
         C.uninstall net.Testbed.ctrl server_handle ~table_id:0 ~match_:Of_match.wildcard ()));
  let queue = Queue.create () in
  let queue_cap = 500 in
  let sink pkt = if Queue.length queue < queue_cap then Queue.push pkt queue in
  let link =
    Scotch_sim.Link.create net.Testbed.engine ~bandwidth_bps:1e9
      ~latency:Testbed.control_latency ~queue_capacity:1000
  in
  Scotch_sim.Link.connect link sink;
  Scotch_switch.Switch.add_port net.Testbed.edge ~port_id:60 link;
  (* R-paced service: install the two-hop path and packet-out *)
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every net.Testbed.engine ~period:(1.0 /. r) (fun () ->
        match Queue.take_opt queue with
        | None -> ()
        | Some pkt ->
          let key = Scotch_packet.Packet.flow_key pkt in
          C.install net.Testbed.ctrl edge_handle ~table_id:0 ~priority:10 ~idle_timeout:10.0
            ~match_:(Of_match.exact_flow key)
            ~instructions:(Of_action.output (Of_types.Port_no.Physical 50))
            ();
          C.install net.Testbed.ctrl server_handle ~table_id:0 ~priority:10 ~idle_timeout:10.0
            ~match_:(Of_match.exact_flow key)
            ~instructions:(Of_action.output (Of_types.Port_no.Physical 1))
            ();
          C.packet_out net.Testbed.ctrl edge_handle
            ~actions:[ Of_action.Output (Of_types.Port_no.Physical 50) ]
            pkt)
  in
  Source.start (Testbed.attack_source net ~rate:offered ());
  Testbed.served_rate net ~warmup:1.5 ~until:duration

(** The same flood on the evaluation net, served by Scotch or, with
    [~scotch_enabled:false], by plain reactive control. *)
let run_flood_point ?(seed = 42) ~scotch_enabled ~offered ~duration () =
  let net = Testbed.scotch_net ~seed ~scotch_enabled () in
  Source.start (Testbed.attack_source net ~rate:offered ());
  Testbed.served_rate net ~warmup:1.5 ~until:duration

let run_dedicated_port ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max 3.0 (6.0 *. scale) in
  let sweep f = List.map (fun o -> (o, f ~offered:o ~duration ())) dedicated_rates in
  { Report.id = "ablation-dedicated-port";
    title = "Scaling alternatives: plain reactive vs dedicated controller port vs Scotch";
    x_label = "offered new-flow rate (flows/s)";
    y_label = "successful new-flow rate (flows/s)";
    series =
      [ { Report.label = "plain reactive (OFA path)";
          points = sweep (run_flood_point ~seed ~scotch_enabled:false) };
        { Report.label = "dedicated data port, R-paced installs";
          points = sweep (run_dedicated_point ~seed) };
        { Report.label = "Scotch overlay";
          points = sweep (run_flood_point ~seed ~scotch_enabled:true) } ] }

(** {1 Activation / withdrawal life cycle (§5.5)} *)

let run_withdrawal ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max 20.0 (30.0 *. scale) in
  let attack_stop = duration /. 2.0 in
  let net = Testbed.scotch_net ~seed () in
  let client = Testbed.client_source net ~i:0 ~rate:10.0 () in
  let attack = Testbed.attack_source net ~rate:1500.0 () in
  Source.start client;
  Source.start attack;
  ignore
    (Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:attack_stop (fun () ->
         Source.stop attack));
  let active_points = ref [] and failure_points = ref [] in
  let last_seen = ref 0 and last_launched = ref 0 in
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every net.Testbed.engine ~period:1.0 (fun () ->
        let now = Scotch_sim.Engine.now net.Testbed.engine in
        let active =
          if Scotch_core.Scotch.is_active net.Testbed.app Testbed.edge_dpid then 1.0 else 0.0
        in
        active_points := (now, active) :: !active_points;
        let launched = Source.launched_count client in
        let seen = ref 0 in
        List.iter
          (fun (l : Flow_gen.launched) ->
            match Scotch_topo.Host.flow_record net.Testbed.server l.Flow_gen.flow_id with
            | Some _ -> incr seen
            | None -> ())
          (Source.launched client);
        let dl = launched - !last_launched and ds = !seen - !last_seen in
        last_launched := launched;
        last_seen := !seen;
        if dl > 0 then
          failure_points :=
            (now, Stdlib.max 0.0 (float_of_int (dl - ds) /. float_of_int dl))
            :: !failure_points)
  in
  Testbed.run_until net ~until:duration;
  { Report.id = "ablation-withdrawal";
    title =
      Printf.sprintf "Overlay life cycle: attack stops at t=%.0f s, overlay phases out"
        attack_stop;
    x_label = "time (s)";
    y_label = "overlay active (0/1) / client failure";
    series =
      [ { Report.label = "overlay active"; points = List.rev !active_points };
        { Report.label = "client failure (1 s bins)"; points = List.rev !failure_points } ] }
