(** Baseline reactive routing application.

    This is the plain OpenFlow workflow of §3.1: on Packet-In, admit the
    flow, compute a shortest path over the physical network, install an
    exact-match rule at every switch on the path (Step 2 of Fig. 1) and
    Packet-Out the first packet at the ingress switch.  No protection
    against control-path overload — this is what Figs. 3 and 4
    measure. *)

open Scotch_openflow
open Scotch_packet

(** Per-flow rule idle timeout, s (10 s in §6.1). *)
let idle_timeout = 10.0

(** Priority of the per-flow rules. *)
let rule_priority = 10

type t = {
  ctrl : Controller.t;
  mutable flows_admitted : int;
  mutable flows_unroutable : int;
}

let create ctrl =
  { ctrl; flows_admitted = 0; flows_unroutable = 0 }

(** Install the per-flow rules for [key] along [path]; each element is
    [(dpid, out_port)].  Rules go in destination-first so the last rule
    to appear is at the ingress switch (§5.3's ordering, applied here
    too). *)
let install_path t ~key ~path =
  List.iter
    (fun (dpid, out_port) ->
      match Controller.switch t.ctrl dpid with
      | None -> ()
      | Some sw ->
        Controller.install t.ctrl sw ~priority:rule_priority ~idle_timeout
          ~match_:(Of_match.exact_flow key)
          ~instructions:(Of_action.output (Of_types.Port_no.Physical out_port))
          ())
    (List.rev path)

let handle_packet_in t (sw : Controller.sw) (pi : Of_msg.Packet_in.t) =
  (* Only plain (non-tunneled) Packet-Ins: overlay traffic belongs to
     the Scotch app, registered ahead of this one. *)
  match pi.Of_msg.Packet_in.tunnel_id with
  | Some _ -> false
  | None ->
    let pkt = pi.Of_msg.Packet_in.packet in
    let key = Packet.flow_key pkt in
    let topo = Controller.topo t.ctrl in
    (match
       Scotch_topo.Topology.route_to_host topo ~src:sw.Controller.dpid
         ~dst_ip:key.Flow_key.ip_dst
     with
    | None ->
      t.flows_unroutable <- t.flows_unroutable + 1;
      true
    | Some path ->
      t.flows_admitted <- t.flows_admitted + 1;
      install_path t ~key ~path;
      (* forward the buffered first packet from the ingress switch *)
      (match path with
      | (_, out_port) :: _ ->
        Controller.packet_out t.ctrl sw ~in_port:pi.Of_msg.Packet_in.in_port
          ~actions:[ Of_action.Output (Of_types.Port_no.Physical out_port) ]
          pkt
      | [] -> ());
      true)

(** Build the controller app record; register with
    {!Controller.register_app}. *)
let app t =
  Controller.app ~packet_in:(fun sw pi -> handle_packet_in t sw pi) ()

(** Install the table-miss rule (priority 0, wildcard → controller) on a
    switch — the default OpenFlow reactive posture. *)
let install_table_miss ctrl sw =
  Controller.install ctrl sw ~table_id:0 ~priority:0 ~match_:Of_match.wildcard
    ~instructions:Of_action.to_controller ()

let flows_admitted t = t.flows_admitted
let flows_unroutable t = t.flows_unroutable
