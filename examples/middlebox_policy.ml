(* Middlebox policy consistency (§5.4).

   Flows to the protected server must traverse a stateful firewall.
   Scotch keeps this true on BOTH paths: overlay flows are steered into
   the segment by shared green rules (no per-flow state on the hardware
   switches), and a migrated elephant keeps using the SAME firewall
   instance, so the middlebox never sees a mid-connection flow without
   established state.

   Run with: dune exec examples/middlebox_policy.exe *)

open Scotch_experiments
open Scotch_workload
open Scotch_topo

let () =
  let net = Testbed.scotch_net () in
  let server_ip = Host.ip net.Testbed.server in
  (* policy: every flow to the server goes through the firewall *)
  let fw, _segment =
    Testbed.add_firewall_segment net ~classify:(fun key ->
        Scotch_packet.Ipv4_addr.equal key.Scotch_packet.Flow_key.ip_dst server_ip)
  in
  (* a flood forces the overlay on; one long flow is our protagonist *)
  let flood =
    let rng = Scotch_util.Rng.split (Scotch_sim.Engine.rng net.Testbed.engine) in
    Source.create net.Testbed.engine ~rng ~host:net.Testbed.clients.(0)
      ~dst:net.Testbed.server ~rate:1000.0 ~spoof_sources:true ()
  in
  Source.start flood;
  let src = Testbed.client_source net ~i:0 ~rate:1.0 () in
  let flow = ref None in
  Scotch_sim.Engine.schedule_at net.Testbed.engine ~at:3.0 (fun () ->
      flow :=
        Some
          (Source.launch_flow src
             ~spec:{ Flow_gen.packets = 20_000; payload = 1000; interval = 0.0005 }));
  Testbed.run_until net ~until:12.0;
  let l = Option.get !flow in
  let db = Scotch_core.Scotch.db net.Testbed.app in
  let kind =
    match Scotch_core.Flow_info_db.find db l.Flow_gen.key with
    | Some { Scotch_core.Flow_info_db.kind = Scotch_core.Flow_info_db.Physical; _ } ->
      "physical (migrated)"
    | Some { Scotch_core.Flow_info_db.kind = Scotch_core.Flow_info_db.Overlay _; _ } ->
      "overlay"
    | _ -> "other"
  in
  Printf.printf "protagonist flow ended on: %s\n" kind;
  Printf.printf "firewall processed packets:     %d\n" (Middlebox.processed fw);
  Printf.printf "firewall flows tracked:         %d\n" (Middlebox.flows_tracked fw);
  Printf.printf "state violations (mid-flow, no context): %d\n" (Middlebox.state_violations fw);
  Printf.printf "encapsulated arrivals (tunnel header leaked): %d\n"
    (Middlebox.encap_violations fw);
  let r = Host.flow_record net.Testbed.server l.Flow_gen.flow_id in
  (match r with
  | Some r ->
    Printf.printf "protagonist packets delivered:  %d (every one through the firewall)\n"
      r.Host.packets
  | None -> print_endline "protagonist flow was not delivered!");
  (* a couple of in-flight packets can race the first packet's
     re-injection during path setup; anything beyond that means the two
     paths used different middlebox instances *)
  if Middlebox.state_violations fw <= 5 && Middlebox.encap_violations fw = 0 then
    print_endline "\npolicy consistency held across overlay routing AND migration."
  else print_endline "\nPOLICY VIOLATION detected."
