(* Quickstart: build a tiny SDN from scratch with the public API — one
   Pica8 switch, two hosts, a reactive controller — send traffic, and
   look at what the control path did.

   Run with: dune exec examples/quickstart.exe *)

open Scotch_switch
open Scotch_topo
open Scotch_workload
module C = Scotch_controller.Controller

let () =
  (* 1. An engine: all time and randomness flow from here. *)
  let engine = Scotch_sim.Engine.create ~seed:7 () in

  (* 2. A topology: one hardware switch, a client and a server. *)
  let topo = Topology.create engine in
  let switch = Switch.create engine ~dpid:1 ~name:"tor" ~profile:Profile.pica8 () in
  Topology.add_switch topo switch;
  let client = Host.create engine ~id:1 ~name:"client" in
  let server = Host.create engine ~id:2 ~name:"server" in
  Topology.add_host topo client;
  Topology.add_host topo server;
  Topology.attach_host topo client switch ~port:1;
  Topology.attach_host topo server switch ~port:2;

  (* 3. A controller running the plain reactive-routing app. *)
  let ctrl = C.create engine topo in
  let routing = Scotch_controller.Routing.create ctrl in
  C.register_app ctrl (Scotch_controller.Routing.app routing);
  let sw = C.connect ctrl switch ~latency:0.5e-3 in
  Scotch_controller.Routing.install_table_miss ctrl sw;

  (* 4. Traffic: 50 new flows/s from the client. *)
  let src =
    Source.create engine
      ~rng:(Scotch_util.Rng.split (Scotch_sim.Engine.rng engine))
      ~host:client ~dst:server ~rate:50.0 ()
  in
  Source.start src;
  (* The server's one-way delays, summed as its packets arrive. *)
  let delay_sum = ref 0.0 in
  Host.on_receive server (fun pkt ->
      delay_sum :=
        !delay_sum +. (Scotch_sim.Engine.now engine -. pkt.Scotch_packet.Packet.meta.created));

  (* 5. Run five simulated seconds and report. *)
  Scotch_sim.Engine.run ~until:5.0 engine;
  let ofa = Ofa.counters (Switch.ofa switch) in
  Printf.printf "flows launched:        %d\n" (Source.launched_count src);
  Printf.printf "flows reaching server: %d\n" (Host.flows_seen server);
  Printf.printf "Packet-In messages:    %d\n" ofa.Ofa.pin_sent;
  Printf.printf "rules installed:       %d\n" ofa.Ofa.flow_mods_handled;
  Printf.printf "failure fraction:      %.3f\n"
    (Source.failure_fraction src ~dst:server ());
  Printf.printf "mean one-way delay:    %.0f us\n"
    (!delay_sum /. float_of_int (Host.received_packets server) *. 1e6)
