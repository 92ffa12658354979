(** A side-effect-free view of the whole network for static
    verification.

    Capture walks the topology once: adjacency, tunnels and host
    attachments resolve every port to the endpoint its output lands on,
    so the checker needs no live switch again.  The reliable layer's
    intent stores are the exception: they are read in place, not copied,
    and every change to one is announced to the incremental verifier
    ({!Scotch_reliable.Reliable.set_on_intent}).  All record fields are
    transparent so tests can forge known-bad states. *)

open Scotch_switch
open Scotch_topo
open Scotch_core

type endpoint =
  | To_switch of { peer : int; peer_in_port : int }
  | To_host of int
  | Opaque
  | Disconnected

type port = {
  port_id : int;
  tunnel : int option;
  link_up : bool option;
  endpoint : endpoint;
}

type node = {
  dpid : int;
  failed : bool;
  num_tables : int;
  tables : (int * Classifier.t) list;
  groups : Group_table.group list;
  ports : port list;
}

type host = {
  host_ip : int;
  attach_dpid : int;
  attach_port : int;
}

type intent_node = {
  int_dpid : int;
  int_store : Scotch_reliable.Intent.t;
}

type intent_state = {
  grace : float;
  owned : Scotch_openflow.Of_types.cookie list;
  per_switch : intent_node list;
}

type overlay_state = {
  vswitches : (int * bool * bool) list;
  uplinks : (int * (int * int) list) list;
  tunnel_origins : (int * int) list;
  covers : (int * int) list;
  mesh : (int * (int * int) list) list;
  deliveries : (int * (int * int) list) list;
}

type t = {
  now : float;
  nodes : node list;
  hosts : host list;
  managed : int list;
  vswitch_dpids : int list;
  overlay : overlay_state option;
  intents : intent_state option;
}

(* Plain recursive loops: a [List.find_opt] predicate would be a
   closure built on every call. *)
let rec node_in dpid = function
  | [] -> None
  | n :: rest -> if n.dpid = dpid then Some n else node_in dpid rest

let node t dpid = node_in dpid t.nodes

let rec port_in pid = function
  | [] -> None
  | p :: rest -> if p.port_id = pid then Some p else port_in pid rest

let find_port n pid = port_in pid n.ports

let rec table_in table_id = function
  | [] -> None
  | (id, c) :: rest -> if id = table_id then Some c else table_in table_id rest

let table n table_id = table_in table_id n.tables

let controlled t = List.sort_uniq compare (t.managed @ t.vswitch_dpids)

let hashtbl_sorted h =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

(** Resolve where each (dpid, out_port) leads: data-link adjacency,
    then tunnels, then host attachment ports. *)
let endpoint_map topo =
  let map : (int * int, endpoint) Hashtbl.t = Hashtbl.create 256 in
  Topology.iter_switches topo (fun sw ->
      let dpid = Switch.dpid sw in
      List.iter
        (fun (out_port, peer) ->
          (* the peer's in-port is its adjacency entry pointing back *)
          let peer_in_port =
            match List.find_opt (fun (_, d) -> d = dpid) (Topology.neighbors topo peer) with
            | Some (p, _) -> p
            | None -> -1
          in
          Hashtbl.replace map (dpid, out_port) (To_switch { peer; peer_in_port }))
        (Topology.neighbors topo dpid));
  Topology.iter_tunnels topo (fun (tun : Topology.tunnel) ->
      let ep =
        match tun.Topology.dst with
        | `Switch peer ->
          To_switch { peer; peer_in_port = Topology.tunnel_port_of_id tun.Topology.tunnel_id }
        | `Host h -> To_host h
      in
      Hashtbl.replace map (tun.Topology.src_dpid, tun.Topology.src_port) ep);
  Topology.iter_hosts topo (fun h ->
      match Topology.host_attachment topo (Host.ip h) with
      | Some (dpid, p) -> Hashtbl.replace map (dpid, p) (To_host (Host.id h))
      | None -> ());
  map

let capture_node endpoints ~now sw =
  let dpid = Switch.dpid sw in
  let ports =
    List.map
      (fun (pid, kind, link) ->
        let tunnel = match kind with Switch.Tunnel tid -> Some tid | Switch.Normal -> None in
        let link_up = Option.map Scotch_sim.Link.is_up link in
        let endpoint =
          match (link, Hashtbl.find_opt endpoints (dpid, pid)) with
          | None, _ -> Disconnected
          | Some _, Some ep -> ep
          | Some _, None -> Opaque
        in
        { port_id = pid; tunnel; link_up; endpoint })
      (Switch.ports_snapshot sw)
  in
  let tables = Switch.tables sw in
  { dpid;
    failed = Switch.is_failed sw;
    num_tables = Array.length tables;
    tables =
      Array.to_list tables
      |> List.map (fun tbl ->
             (Flow_table.table_id tbl, Classifier.of_list (Flow_table.live_rules tbl ~now)));
    groups = Group_table.groups (Switch.group_table sw);
    ports }

let capture_overlay ov =
  let vswitches = ref [] and mesh = ref [] and deliveries = ref [] in
  Overlay.iter_vswitches ov (fun v ->
      let dpid = Switch.dpid v.Overlay.vsw in
      vswitches := (dpid, v.Overlay.alive, v.Overlay.is_backup) :: !vswitches;
      mesh := (dpid, hashtbl_sorted v.Overlay.mesh_out) :: !mesh;
      deliveries := (dpid, hashtbl_sorted v.Overlay.host_tunnels) :: !deliveries);
  { vswitches = List.sort compare !vswitches;
    uplinks = Overlay.all_uplinks ov;
    tunnel_origins = Overlay.tunnel_origins ov;
    covers = Overlay.covers ov;
    mesh = List.sort compare !mesh;
    deliveries = List.sort compare !deliveries }

(** The reliable layer's intent stores (when the app has one), read in
    place, so the checker can diff intent against the captured device
    tables.  The repair grace rides along: both intents and device rules
    younger than it may legitimately still be in flight. *)
let reliable_intents r =
  let module R = Scotch_reliable.Reliable in
  let per_switch =
    List.filter_map
      (fun dpid ->
        Option.map (fun int_store -> { int_dpid = dpid; int_store }) (R.intent_of r dpid))
      (R.dpids r)
  in
  { grace = R.repair_grace; owned = R.owned_cookies r; per_switch }

let capture ?scotch ~now topo =
  let endpoints = endpoint_map topo in
  let nodes = ref [] in
  Topology.iter_switches topo (fun sw -> nodes := capture_node endpoints ~now sw :: !nodes);
  let hosts = ref [] in
  Topology.iter_hosts topo (fun h ->
      match Topology.host_attachment topo (Host.ip h) with
      | Some (attach_dpid, attach_port) ->
        hosts :=
          { host_ip = Scotch_packet.Ipv4_addr.to_int (Host.ip h);
            attach_dpid; attach_port }
          :: !hosts
      | None -> ());
  { now;
    nodes = List.sort (fun a b -> compare a.dpid b.dpid) !nodes;
    hosts = List.sort (fun a b -> compare a.host_ip b.host_ip) !hosts;
    managed = (match scotch with Some s -> Scotch.managed_dpids s | None -> []);
    vswitch_dpids = (match scotch with Some s -> Scotch.vswitch_dpids s | None -> []);
    overlay = Option.map (fun s -> capture_overlay (Scotch.overlay s)) scotch;
    intents =
      Option.bind scotch (fun s -> Option.map reliable_intents (Scotch.reliable s)) }
