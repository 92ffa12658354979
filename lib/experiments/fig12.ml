(** Large-flow migration (§5.3, reconstructed — truncated in §6).

    Under a control-path attack the overlay carries everything; four
    elephant flows start among the mice.  With migration enabled the
    controller detects them from vswitch flow statistics within one poll
    interval and moves them to physical paths (destination-first rule
    installation); their packets then skip the three-tunnel overlay
    detour.  Reported: mean elephant packet one-way delay per 1-second
    bin, with migration on and off — the step down marks the
    migration. *)

open Scotch_workload
open Scotch_core

let attack_rate = 1500.0
let elephant_count = 4
let elephant_pkt_rate = 2000.0
let elephant_start = 4.0

(** The elephants scenario on a fresh evaluation net, not yet run: a
    spoofed flood and mice on client 0, then at [elephant_start]
    [elephant_count] CBR elephants from the same host lasting
    [duration], each handed to [on_launch].  The flood shares the
    elephants' ingress port, so they are diverted onto the overlay
    like everything else on that port. *)
let scenario ?(seed = 42) ~config ~duration ~on_launch () =
  let net = Testbed.scotch_net ~seed ~config () in
  let attack = Testbed.attack_source net ~host:net.Testbed.clients.(0) ~rate:attack_rate () in
  let mice =
    Testbed.client_source net ~i:0 ~rate:50.0
      ~spec_of:(Sizes.fixed ~packets:5 ~payload:500 ~interval:0.01)
      ()
  in
  Source.start attack;
  Source.start mice;
  (* the rate is unused: elephants are launched explicitly *)
  let elephant_src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:elephant_start (fun () ->
      for _ = 1 to elephant_count do
        on_launch
          (Source.launch_flow elephant_src
             ~spec:
               { Flow_gen.packets = int_of_float (elephant_pkt_rate *. duration);
                 payload = 1000;
                 interval = 1.0 /. elephant_pkt_rate })
      done);
  net

let run_variant ?seed ~migration ~duration () =
  let elephant_ids = Hashtbl.create 8 in
  let net =
    scenario ?seed
      ~config:{ Config.default with Config.migration_enabled = migration }
      ~duration
      ~on_launch:(fun l -> Hashtbl.replace elephant_ids l.Flow_gen.flow_id ())
      ()
  in
  (* per-1s-bin delay accounting at the server *)
  let nbins = int_of_float duration + 1 in
  let delay_sum = Array.make nbins 0.0 and delay_n = Array.make nbins 0 in
  Scotch_topo.Host.on_receive net.Testbed.server (fun pkt ->
      if Hashtbl.mem elephant_ids pkt.Scotch_packet.Packet.meta.flow_id then begin
        let now = Scotch_sim.Engine.now net.Testbed.engine in
        let bin = int_of_float now in
        if bin < nbins then begin
          delay_sum.(bin) <- delay_sum.(bin) +. (now -. pkt.Scotch_packet.Packet.meta.created);
          delay_n.(bin) <- delay_n.(bin) + 1
        end
      end);
  Testbed.run_until net ~until:duration;
  let points = ref [] in
  for bin = nbins - 1 downto int_of_float elephant_start do
    if delay_n.(bin) > 0 then
      points :=
        (float_of_int bin, delay_sum.(bin) /. float_of_int delay_n.(bin) *. 1e3) :: !points
  done;
  (!points, (Scotch.counters net.Testbed.app).Scotch.migrations_completed)

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max 12.0 (20.0 *. scale) in
  let with_mig, migrations = run_variant ~seed ~migration:true ~duration () in
  let without_mig, _ = run_variant ~seed ~migration:false ~duration () in
  { Report.id = "fig12";
    title =
      Printf.sprintf "Large-flow migration off the overlay (%d elephants, %d migrated)"
        elephant_count migrations;
    x_label = "time (s)";
    y_label = "mean elephant packet delay (ms)";
    series =
      [ { Report.label = "migration on"; points = with_mig };
        { Report.label = "migration off"; points = without_mig } ] }
