(** The network: switches, hosts, middleboxes, links, tunnels — plus the
    graph view (adjacency, host attachment points) the controller uses
    for path computation.

    Wiring helpers create the simplex {!Scotch_sim.Link} pairs and set
    their sinks to the peer's receive function, so the data plane is
    fully connected closures with no central dispatch. *)

open Scotch_switch
open Scotch_openflow
open Scotch_packet

type link_params = {
  bandwidth_bps : float;
  latency : float;
  queue_capacity : int;
}

(** 10 GbE, 50 µs, 1000-packet buffers: a data-center data link. *)
let default_link = { bandwidth_bps = 10e9; latency = 50e-6; queue_capacity = 1000 }

(** A tunnel rides a multi-hop underlay path, so it has higher latency
    than a single link. *)
let default_tunnel = { bandwidth_bps = 10e9; latency = 150e-6; queue_capacity = 1000 }

type tunnel = {
  tunnel_id : int;
  src_dpid : Of_types.datapath_id;
  dst : [ `Switch of Of_types.datapath_id | `Host of int ];
  src_port : int; (* tunnel port number at the source switch *)
}

type t = {
  engine : Scotch_sim.Engine.t;
  switches : (int, Switch.t) Hashtbl.t;
  hosts : (int, Host.t) Hashtbl.t;
  (* dpid -> (out_port, peer dpid) list *)
  adj : (int, (int * int) list ref) Hashtbl.t;
  (* host ip -> (dpid, port at that switch) *)
  host_attach : (int, int * int) Hashtbl.t;
  (* host id -> host *)
  tunnels : (int, tunnel) Hashtbl.t;
  mutable next_tunnel_id : int;
}

let create engine =
  { engine; switches = Hashtbl.create 16; hosts = Hashtbl.create 64; adj = Hashtbl.create 16;
    host_attach = Hashtbl.create 64; tunnels = Hashtbl.create 32; next_tunnel_id = 1 }

let add_switch t sw =
  let dpid = Switch.dpid sw in
  if Hashtbl.mem t.switches dpid then invalid_arg "Topology.add_switch: duplicate dpid";
  Hashtbl.replace t.switches dpid sw;
  Hashtbl.replace t.adj dpid (ref [])

let add_host t h =
  if Hashtbl.mem t.hosts (Host.id h) then invalid_arg "Topology.add_host: duplicate host id";
  Hashtbl.replace t.hosts (Host.id h) h

let switch t dpid = Hashtbl.find_opt t.switches dpid
let switch_exn t dpid = Hashtbl.find t.switches dpid
let iter_switches t f = Hashtbl.iter (fun _ sw -> f sw) t.switches
let iter_hosts t f = Hashtbl.iter (fun _ h -> f h) t.hosts

let mk_link t ?(params = default_link) ~sink () =
  let link =
    Scotch_sim.Link.create t.engine ~bandwidth_bps:params.bandwidth_bps
      ~latency:params.latency ~queue_capacity:params.queue_capacity
  in
  Scotch_sim.Link.connect link sink;
  link

(** [link_switches t (a, pa) (b, pb)] creates a duplex data link
    between port [pa] of [a] and port [pb] of [b], and records the
    adjacency for path computation. *)
let link_switches t (a, pa) (b, pb) =
  let ab = mk_link t ~sink:(fun pkt -> Switch.receive b ~in_port:pb pkt) () in
  let ba = mk_link t ~sink:(fun pkt -> Switch.receive a ~in_port:pa pkt) () in
  Switch.add_port a ~port_id:pa ab;
  Switch.add_port b ~port_id:pb ba;
  let da = Hashtbl.find t.adj (Switch.dpid a) and db = Hashtbl.find t.adj (Switch.dpid b) in
  da := (pa, Switch.dpid b) :: !da;
  db := (pb, Switch.dpid a) :: !db

(** [attach_host t h sw ~port] gives [h] its uplink to [sw] and
    [sw] a port delivering to [h]. *)
let attach_host t h sw ~port =
  let up = mk_link t ~sink:(fun pkt -> Switch.receive sw ~in_port:port pkt) () in
  let down = mk_link t ~sink:(fun pkt -> Host.deliver h pkt) () in
  Host.set_uplink h up;
  Switch.add_port sw ~port_id:port down;
  Hashtbl.replace t.host_attach (Ipv4_addr.to_int (Host.ip h)) (Switch.dpid sw, port)

(** Port number a tunnel occupies at its source switch: globally unique,
    derived from the tunnel id, so tunnel ports never collide. *)
let tunnel_port_of_id tid = 10_000 + tid

(** [add_tunnel_switches t a b] creates a duplex tunnel between
    two switches (e.g. physical switch ↔ Scotch vswitch, or the vswitch
    mesh, §4.1).  Returns [(tid_ab, tid_ba)], the tunnel ids for each
    direction; the tunnel port at each source is
    [tunnel_port_of_id tid]. *)
let add_tunnel_switches t a b =
  let tid_ab = t.next_tunnel_id in
  let tid_ba = t.next_tunnel_id + 1 in
  t.next_tunnel_id <- t.next_tunnel_id + 2;
  let pa = tunnel_port_of_id tid_ab and pb = tunnel_port_of_id tid_ba in
  (* Packets sent into tunnel tid_ab arrive at [b]'s port for tid_ab. *)
  let pb_in = tunnel_port_of_id tid_ab and pa_in = tunnel_port_of_id tid_ba in
  let params = default_tunnel in
  let ab = mk_link t ~params ~sink:(fun pkt -> Switch.receive b ~in_port:pb_in pkt) () in
  let ba = mk_link t ~params ~sink:(fun pkt -> Switch.receive a ~in_port:pa_in pkt) () in
  Switch.add_port a ~port_id:pa ~kind:(Tunnel tid_ab) ab;
  Switch.add_input_port b ~port_id:pb_in ~kind:(Tunnel tid_ab) ();
  Switch.add_port b ~port_id:pb ~kind:(Tunnel tid_ba) ba;
  Switch.add_input_port a ~port_id:pa_in ~kind:(Tunnel tid_ba) ();
  Hashtbl.replace t.tunnels tid_ab
    { tunnel_id = tid_ab; src_dpid = Switch.dpid a; dst = `Switch (Switch.dpid b); src_port = pa };
  Hashtbl.replace t.tunnels tid_ba
    { tunnel_id = tid_ba; src_dpid = Switch.dpid b; dst = `Switch (Switch.dpid a); src_port = pb };
  (tid_ab, tid_ba)

(** [add_tunnel_to_host t sw h] creates a delivery tunnel from a
    Scotch vswitch to a host (the host-vswitch leg of the overlay).
    Returns the tunnel id. *)
let add_tunnel_to_host t sw h =
  let tid = t.next_tunnel_id in
  t.next_tunnel_id <- t.next_tunnel_id + 1;
  let p = tunnel_port_of_id tid in
  let link = mk_link t ~params:default_tunnel ~sink:(fun pkt -> Host.deliver h pkt) () in
  Switch.add_port sw ~port_id:p ~kind:(Tunnel tid) link;
  Hashtbl.replace t.tunnels tid
    { tunnel_id = tid; src_dpid = Switch.dpid sw; dst = `Host (Host.id h); src_port = p };
  tid

let tunnel t tid = Hashtbl.find_opt t.tunnels tid

(** Iterate over every tunnel, in tunnel-id order (determinism for
    verification snapshots). *)
let iter_tunnels t f =
  Hashtbl.fold (fun _ tun acc -> tun :: acc) t.tunnels []
  |> List.sort (fun a b -> compare a.tunnel_id b.tunnel_id)
  |> List.iter f

(** [insert_middlebox t mb ~upstream:(su, up_port) ~downstream:(sd, down_in_port)]
    wires S_U → middlebox → S_D (§5.4's typical configuration). *)
let insert_middlebox t mb ~upstream:(su, up_port) ~downstream:(sd, down_in_port) =
  let to_mb = mk_link t ~sink:(fun pkt -> Middlebox.receive mb pkt) () in
  let from_mb = mk_link t ~sink:(fun pkt -> Switch.receive sd ~in_port:down_in_port pkt) () in
  Switch.add_port su ~port_id:up_port to_mb;
  Switch.add_input_port sd ~port_id:down_in_port ();
  Middlebox.connect_out mb from_mb

(** {1 Graph queries (the controller's network view)} *)

(** Attachment point of the host owning [ip]. *)
let host_attachment t ip = Hashtbl.find_opt t.host_attach (Ipv4_addr.to_int ip)

let neighbors t dpid =
  match Hashtbl.find_opt t.adj dpid with None -> [] | Some l -> !l

(** [shortest_path t ~src ~dst] finds a minimum-hop switch path, as a
    list of [(dpid, out_port)] pairs: forwarding [pkt] at each [dpid]
    out of [out_port] reaches [dst] (the final element is at the switch
    {e before} [dst]; an empty list means [src = dst]). *)
let shortest_path t ~src ~dst =
  if src = dst then Some []
  else begin
    let prev = Hashtbl.create 16 in
    let visited = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace visited src ();
    Queue.push src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (port, v) ->
          if not (Hashtbl.mem visited v) then begin
            Hashtbl.replace visited v ();
            Hashtbl.replace prev v (u, port);
            if v = dst then found := true else Queue.push v q
          end)
        (neighbors t u)
    done;
    if not !found then None
    else begin
      let rec build v acc =
        if v = src then acc
        else begin
          let u, port = Hashtbl.find prev v in
          build u ((u, port) :: acc)
        end
      in
      Some (build dst [])
    end
  end

(** [route_to_host t ~src ~dst_ip] is the full forwarding path from
    switch [src] to the host owning [dst_ip]: switch hops then the final
    host port.  [None] if the host is unknown or unreachable. *)
let route_to_host t ~src ~dst_ip =
  match host_attachment t dst_ip with
  | None -> None
  | Some (dst_dpid, host_port) -> (
    match shortest_path t ~src ~dst:dst_dpid with
    | None -> None
    | Some hops -> Some (hops @ [ (dst_dpid, host_port) ]))
