(* Vswitch failover: the §5.6 recovery path, end to end.

   A flash crowd pushes the edge switch onto the overlay; while the
   crowd is in full swing a fault plan kills one of the active uplink
   vswitches.  Watch the heartbeat notice the corpse (~timeout
   seconds), a warm backup get promoted in its place, and the edge
   switch's select group rebalance away from the dead uplink — then the
   vswitch revives and rejoins the pool as a backup.

   Run with: dune exec examples/vswitch_failover.exe *)

open Scotch_experiments
open Scotch_workload
open Scotch_faults

let () =
  let params =
    { Tracegen.duration = 40.0;
      base_rate = 30.0;
      flash_start = 8.0;
      flash_end = 30.0;
      flash_multiplier = 25.0;
      hotspot_fraction = 0.8;
      num_sources = 3;
      num_destinations = 2;
      size_of = Sizes.pareto ~alpha:1.4 ~min_packets:2 ~max_packets:100 ~pkt_rate:200.0 () }
  in
  let net =
    Testbed.scotch_net ~num_vswitches:4 ~num_backups:2
      ~num_clients:params.Tracegen.num_sources ~num_servers:params.Tracegen.num_destinations ()
  in
  (* the fault plan: kill vswitch 100 at t=15 for 12 s *)
  let victim = Testbed.vswitch_dpid 0 in
  let plan = Plan.of_list [ Fault.vswitch_crash ~at:15.0 ~duration:12.0 victim ] in
  Format.printf "fault plan: %a@.@." Plan.pp plan;
  let ledger = Injector.run (Injector.env ~ctrl:net.Testbed.ctrl ~app:net.Testbed.app ()) plan in
  let replay = Testbed.replay_trace net ~seed:42 params in
  (* narrate the overlay's health every second *)
  let overlay = net.Testbed.overlay in
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every net.Testbed.engine ~period:1.0 (fun () ->
        let t = Scotch_sim.Engine.now net.Testbed.engine in
        let active = Scotch_core.Scotch.is_active net.Testbed.app Testbed.edge_dpid in
        let victim_alive =
          not (Scotch_switch.Switch.is_failed net.Testbed.vswitches.(0))
        in
        Printf.printf "t=%5.1fs overlay %s  vswitch %d %s  alive uplinks: %d\n" t
          (if active then "ACTIVE " else "idle   ")
          victim
          (if victim_alive then "up  " else "DEAD")
          (List.length (Scotch_core.Overlay.alive_uplinks_of overlay Testbed.edge_dpid)))
  in
  Testbed.run_until net ~until:(params.Tracegen.duration +. 2.0);
  print_newline ();
  Ledger.print ledger;
  let r = List.hd (Ledger.records ledger) in
  (match (Ledger.detection_latency r, Ledger.time_to_rebalance r, r.Ledger.backup_promoted) with
  | Some d, Some rb, Some b ->
    Printf.printf
      "\nheartbeat loss detected %.2f s after the kill; backup vswitch %d promoted;\n\
       select groups clean of the corpse after %.2f s; %d packets/flows lost meanwhile.\n"
      d b rb r.Ledger.flows_lost
  | _ -> print_endline "\nrecovery incomplete — see the ledger above.");
  let total_delivered =
    Array.fold_left (fun acc s -> acc + Scotch_topo.Host.flows_seen s) 0 net.Testbed.servers
  in
  Printf.printf "flows delivered: %d / %d\n" total_delivered (List.length replay.Testbed.trace)
