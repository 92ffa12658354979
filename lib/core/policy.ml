(** Middlebox policy consistency (§5.4).

    A {e segment} is a middlebox bracketed by an upstream switch S_U and
    a downstream switch S_D (Fig. 8).  Flows subject to policy must
    traverse the segment's middlebox on {e both} the overlay and the
    physical path, through the {e same} middlebox instance, because
    middleboxes are stateful.

    Rule colors follow the paper: shared {e green} rules (priority
    {!green_priority}, cookie {!Config.cookie_green}) carry {e all}
    overlay flows through the segment without per-flow state at the
    physical switches; per-flow {e red} rules (priority
    {!red_priority}) override them for flows on physical paths.

    Middlebox {e chains} are expressed by wiring segments back to back
    (the S_D of one segment is the S_U of the next), so the classifier
    returns only the entry segment. *)

open Scotch_openflow
open Scotch_topo
open Scotch_packet

let green_priority = 5
let red_priority = 10

type segment = {
  seg_name : string;
  s_u : int;            (* upstream switch dpid *)
  s_u_mb_port : int;    (* S_U port toward the middlebox *)
  s_d : int;            (* downstream switch dpid *)
  s_d_mb_in_port : int; (* S_D port receiving from the middlebox *)
  in_tunnels : (int, int) Hashtbl.t;  (* vswitch dpid -> tunnel id vswitch->S_U *)
  out_tunnels : (int, int) Hashtbl.t; (* vswitch dpid -> tunnel id S_D->vswitch *)
}

type t = {
  topo : Topology.t;
  mutable segments : segment list;
  mutable classify : Flow_key.t -> segment option;
}

(** [create topo] starts with no segments and a classifier admitting
    every flow without policy. *)
let create topo = { topo; segments = []; classify = (fun _ -> None) }

(** [set_classifier t f] installs the flow → entry-segment mapping. *)
let set_classifier t f = t.classify <- f

let classify t key = t.classify key

let segments t = t.segments

(** [add_segment t overlay ~name ~s_u ~s_u_mb_port ~s_d ~s_d_mb_in_port]
    registers a segment and builds its overlay attachment: a tunnel from
    every overlay vswitch to S_U (entry) and from S_D back to every
    vswitch (exit).  The middlebox itself must already be wired with
    {!Topology.insert_middlebox}. *)
let add_segment t overlay ~name ~s_u ~s_u_mb_port ~s_d ~s_d_mb_in_port =
  let seg =
    { seg_name = name; s_u; s_u_mb_port; s_d; s_d_mb_in_port;
      in_tunnels = Hashtbl.create 16; out_tunnels = Hashtbl.create 16 }
  in
  let su_switch = Topology.switch_exn t.topo s_u in
  let sd_switch = Topology.switch_exn t.topo s_d in
  Overlay.iter_vswitches overlay (fun (v : Overlay.vswitch_info) ->
      let vdpid = Scotch_switch.Switch.dpid v.Overlay.vsw in
      let tid_in, _ = Topology.add_tunnel_switches t.topo v.Overlay.vsw su_switch in
      let tid_out, _ = Topology.add_tunnel_switches t.topo sd_switch v.Overlay.vsw in
      Hashtbl.replace seg.in_tunnels vdpid tid_in;
      Hashtbl.replace seg.out_tunnels vdpid tid_out);
  t.segments <- seg :: t.segments;
  seg

(** Tunnel id from vswitch [vdpid] into the segment's S_U; raises
    [Not_found] when there is none. *)
let entry_tunnel seg ~vswitch_dpid = Hashtbl.find seg.in_tunnels vswitch_dpid

(** Green (shared) rules for a segment:
    - at S_U: one rule per entry tunnel — packets arriving on that
      tunnel (already decapsulated by the tunnel port) go straight to
      the middlebox port;
    - at S_D: one rule per covered destination — packets arriving from
      the middlebox are re-encapsulated toward the vswitch covering the
      destination.
    Returned as [(dpid, flow_mod)] pairs for the caller (the Scotch app)
    to send, so rule sends stay centralized and countable. *)
let green_rules t overlay seg =
  let open Of_msg in
  let su_rules =
    Hashtbl.fold
      (fun _vdpid tid acc ->
        let fm =
          Flow_mod.add ~table_id:0 ~priority:green_priority ~cookie:Config.cookie_green
            ~match_:(Of_match.with_tunnel_id tid Of_match.wildcard)
            ~instructions:(Of_action.output (Of_types.Port_no.Physical seg.s_u_mb_port))
            ()
        in
        (seg.s_u, fm) :: acc)
      seg.in_tunnels []
  in
  let sd_rules = ref [] in
  Topology.iter_hosts t.topo (fun h ->
      let ip = Host.ip h in
      match Hashtbl.find seg.out_tunnels (Overlay.cover_of_ip overlay ip) with
      | exception Not_found -> ()
      | tid_out ->
        let port = Topology.tunnel_port_of_id tid_out in
        let fm =
          Flow_mod.add ~table_id:0 ~priority:green_priority ~cookie:Config.cookie_green
            ~match_:
              (Of_match.wildcard
              |> Of_match.with_in_port seg.s_d_mb_in_port
              |> Of_match.with_ip_dst ip)
            ~instructions:(Of_action.output (Of_types.Port_no.Physical port))
            ()
        in
        sd_rules := (seg.s_d, fm) :: !sd_rules);
  su_rules @ !sd_rules

(** Red (per-flow) rules taking a flow through the segment on the
    physical network, as [(dpid, output port, flow_mod)]: at S_U output
    to the middlebox; at S_D continue along [exit_port].  Higher
    priority than green.  [match_] is the flow's {!Of_match.exact_flow},
    shared by both rules, and their instructions come from [ports]. *)
let red_rules seg ports ~match_ ~exit_port =
  let red dpid port =
    ( dpid,
      port,
      Of_msg.Flow_mod.add ~table_id:0 ~priority:red_priority ~cookie:Config.cookie_red ~match_
        ~instructions:(Port_actions.find ports port).Port_actions.out_instructions () )
  in
  [ red seg.s_u seg.s_u_mb_port; red seg.s_d exit_port ]

(** Physical path for a policy flow: ingress switch → S_U, then the
    middlebox hop, then S_D → destination host.  Returns
    [Some (plain_hops, exit_port)]: [plain_hops] are the ordinary
    per-flow forwarding hops before S_U and after S_D, and [exit_port]
    is S_D's output toward the destination (consumed by {!red_rules};
    the S_U → middlebox and S_D → exit hops themselves are the red
    rules). *)
let physical_path_through t seg ~first_hop ~dst_ip =
  match Topology.shortest_path t.topo ~src:first_hop ~dst:seg.s_u with
  | None -> None
  | Some to_su -> (
    match Topology.route_to_host t.topo ~src:seg.s_d ~dst_ip with
    | None -> None
    | Some ((_, exit_port) :: after_sd) -> Some (to_su @ after_sd, exit_port)
    | Some [] -> None)
