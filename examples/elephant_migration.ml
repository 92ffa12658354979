(* Elephant-flow migration (§5.3).

   While the overlay carries a flood of mice, a handful of elephant
   flows start.  The controller polls vswitch flow statistics, spots
   the elephants by packet rate, and migrates them onto physical paths
   (rules installed destination-first, the ingress switch last).  Watch
   their one-way delay drop when they leave the three-tunnel detour.

   Run with: dune exec examples/elephant_migration.exe *)

open Scotch_experiments
open Scotch_workload

let () =
  (* overlay_threshold = 0: every new flow is diverted onto the overlay —
     the deterministic way to watch a migration; under a real flood the
     same happens to whatever exceeds the threshold (see fig12) *)
  let config =
    { Scotch_core.Config.default with Scotch_core.Config.overlay_threshold = 0 }
  in
  let net = Testbed.scotch_net ~config () in
  let src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  let elephant = ref None in
  Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:3.0 (fun () ->
      let l =
        Source.launch_flow src
          ~spec:{ Flow_gen.packets = 40_000; payload = 1000; interval = 0.0005 }
      in
      Printf.printf "t=3.0s elephant %s launched (2000 pkt/s)\n"
        (Scotch_packet.Flow_key.to_string l.Flow_gen.key);
      elephant := Some l);
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every net.Testbed.engine ~period:1.0 (fun () ->
        match !elephant with
        | None -> ()
        | Some l -> (
          let db = Scotch_core.Scotch.db net.Testbed.app in
          match Scotch_core.Flow_info_db.find db l.Flow_gen.key with
          | None -> ()
          | Some e ->
            let kind =
              match e.Scotch_core.Flow_info_db.kind with
              | Scotch_core.Flow_info_db.Overlay _ -> "overlay (3 tunnels)"
              | Scotch_core.Flow_info_db.Physical -> "physical path"
              | Scotch_core.Flow_info_db.Pending -> "pending"
              | Scotch_core.Flow_info_db.Dropped -> "dropped"
            in
            let r = Scotch_topo.Host.flow_record net.Testbed.server l.Flow_gen.flow_id in
            let delay =
              match r with
              | Some r when r.Scotch_topo.Host.packets > 0 ->
                r.Scotch_topo.Host.delay_sum /. float_of_int r.Scotch_topo.Host.packets *. 1e6
              | _ -> 0.0
            in
            Printf.printf "t=%4.1fs elephant on %-20s mean delay so far: %5.0f us\n"
              (Scotch_sim.Engine.now net.Testbed.engine)
              kind delay))
  in
  Testbed.run_until net ~until:10.0;
  let c = Scotch_core.Scotch.counters net.Testbed.app in
  Printf.printf "\nelephants detected: %d, migrations completed: %d\n"
    c.Scotch_core.Scotch.elephants_detected c.Scotch_core.Scotch.migrations_completed
