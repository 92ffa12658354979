(* Flash crowd: benign overload.

   The paper stresses that control-path congestion is not only caused
   by attacks — a flash crowd of legitimate short flows has the same
   signature.  This example replays a synthetic trace whose arrival
   rate jumps 25x for ten seconds, and shows the overlay activating for
   the burst and automatically withdrawing afterwards (§5.5).

   Run with: dune exec examples/flash_crowd.exe *)

open Scotch_experiments
open Scotch_workload

let () =
  let params =
    { Tracegen.duration = 40.0;
      base_rate = 30.0;
      flash_start = 10.0;
      flash_end = 20.0;
      flash_multiplier = 25.0;
      hotspot_fraction = 0.8;
      num_sources = 3;
      num_destinations = 2;
      size_of = Sizes.pareto ~alpha:1.4 ~min_packets:2 ~max_packets:100 ~pkt_rate:200.0 () }
  in
  let net =
    Testbed.scotch_net ~num_clients:params.Tracegen.num_sources
      ~num_servers:params.Tracegen.num_destinations ()
  in
  let replay = Testbed.replay_trace net ~seed:42 params in
  let trace = replay.Testbed.trace in
  Printf.printf "trace: %d flows, %d packets, flash x%.0f during [%.0f, %.0f] s\n\n"
    (List.length trace) (Tracegen.total_packets trace) params.Tracegen.flash_multiplier
    params.Tracegen.flash_start params.Tracegen.flash_end;
  (* sample the overlay state every second *)
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every net.Testbed.engine ~period:1.0 (fun () ->
        let t = Scotch_sim.Engine.now net.Testbed.engine in
        let active = Scotch_core.Scotch.is_active net.Testbed.app Testbed.edge_dpid in
        let db = Scotch_core.Scotch.db net.Testbed.app in
        Printf.printf "t=%5.1fs overlay %s  (flows on overlay: %d, on physical: %d)\n" t
          (if active then "ACTIVE " else "idle   ")
          (Scotch_core.Flow_info_db.overlay_count db)
          (Scotch_core.Flow_info_db.physical_count db))
  in
  Testbed.run_until net ~until:(params.Tracegen.duration +. 2.0);
  let total_delivered =
    Array.fold_left (fun acc s -> acc + Scotch_topo.Host.flows_seen s) 0 net.Testbed.servers
  in
  Printf.printf "\nflows delivered: %d / %d\n" total_delivered (List.length trace)
