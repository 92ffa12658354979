(** Extra delay of overlay forwarding (§6 intro: "the extra delay
    incurred by the Scotch overlay traffic relay"; reconstructed —
    truncated in §6).

    A packet routed over the overlay "traverses three tunnels before
    reaching its destination" (§4.1) plus two vswitch data planes; a
    physical-path packet crosses the two switches directly.  Reported:
    one-way packet delay percentiles for the two paths. *)

open Scotch_workload
open Scotch_core

let percentiles = [ 10.; 25.; 50.; 75.; 90.; 99. ]
let flow_packets = 3000
let pkt_rate = 500.0

(** [force_overlay]: with the overlay threshold at 0 every new flow is
    diverted onto the overlay (and the first one activates the switch);
    with defaults and no load, flows get physical paths. *)
let run_variant ?(seed = 42) ~force_overlay () =
  let config =
    if force_overlay then
      { Config.default with
        Config.overlay_threshold = 0;
        migration_enabled = false (* keep the flow on the overlay *) }
    else Config.default
  in
  let net = Testbed.scotch_net ~seed ~config () in
  let samples = Scotch_util.Stats.Samples.create () in
  Scotch_topo.Host.on_receive net.Testbed.server (fun pkt ->
      Scotch_util.Stats.Samples.add samples
        (Scotch_sim.Engine.now net.Testbed.engine -. pkt.Scotch_packet.Packet.meta.created));
  let src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  (* several flows: they hash to different entry vswitches, so the
     distribution shows both the 1-tunnel (entry = cover) and the full
     3-tunnel relays *)
  for _ = 1 to 8 do
    ignore
      (Source.launch_flow src
         ~spec:{ Flow_gen.packets = flow_packets; payload = 1000; interval = 1.0 /. pkt_rate })
  done;
  Testbed.run_until net ~until:(float_of_int flow_packets /. pkt_rate +. 1.0);
  List.map
    (fun p -> (p, Scotch_util.Stats.Samples.percentile samples (p /. 100.0) *. 1e6))
    percentiles

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  ignore scale;
  { Report.id = "fig14";
    title = "Extra delay of the Scotch overlay relay (three tunnels + two vswitches)";
    x_label = "percentile";
    y_label = "one-way packet delay (µs)";
    series =
      [ { Report.label = "physical path"; points = run_variant ~seed ~force_overlay:false () };
        { Report.label = "overlay path"; points = run_variant ~seed ~force_overlay:true () } ]
  }
