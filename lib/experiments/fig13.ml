(** Overlay capacity scaling (§6 intro: "the growth in the Scotch
    overlay's capacity with addition of new vswitches into the overlay";
    reconstructed — truncated in §6).

    Offered new-flow load far beyond one vswitch's control capacity is
    spread over pools of 1–8 vswitches by the select-group load
    balancer.  Reported: successful new-flow rate at the servers vs pool
    size — near-linear until the offered load is reached. *)

open Scotch_workload
open Scotch_core

let pool_sizes = [ 1; 2; 3; 4; 6; 8 ]
let offered_load = 16000.0 (* new flows per second, aggregate *)
let num_servers = 4

let run_point ?(seed = 42) ~num_vswitches ~duration () =
  let config =
    { Config.default with
      Config.vswitches_per_switch = num_vswitches;
      (* keep the physical-path scheduler out of the way: this measures
         overlay capacity *)
      activate_pin_rate = 50.0 }
  in
  let net = Testbed.scotch_net ~seed ~config ~num_vswitches ~num_servers () in
  (* one spoofed-source flood per server so deliveries spread over the
     destination covers *)
  let rate = offered_load /. float_of_int num_servers in
  let sources =
    Array.map (fun dst -> Testbed.attack_source net ~dst ~rate ()) net.Testbed.servers
  in
  Array.iter Source.start sources;
  Testbed.served_rate net ~warmup:1.5 ~until:duration

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max 3.0 (5.0 *. scale) in
  let points =
    List.map
      (fun n -> (float_of_int n, run_point ~seed ~num_vswitches:n ~duration ()))
      pool_sizes
  in
  { Report.id = "fig13";
    title =
      Printf.sprintf "Control-plane capacity scales with the vswitch pool (offered %.0f fl/s)"
        offered_load;
    x_label = "number of vswitches";
    y_label = "successful new-flow rate (flows/s)";
    series = [ { Report.label = "Scotch overlay"; points } ] }
