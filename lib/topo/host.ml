(** End hosts: traffic sources and sinks.

    A host has one uplink into the network (its access switch) and may
    additionally be the endpoint of Scotch delivery tunnels (modeling
    the hypervisor host-vswitch of §4.1, which strips the tunnel header
    and hands the packet to the destination VM).  Hosts record per-flow
    reception only, never per packet, so experiments can compute
    flow-failure fractions and completion times. *)

open Scotch_packet

type flow_record = {
  mutable packets : int;
  first_seen : float;
  mutable delay_sum : float; (* sum of one-way packet delays *)
}

type t = {
  engine : Scotch_sim.Engine.t;
  id : int;
  name : string;
  mac : Mac.t;
  ip : Ipv4_addr.t;
  mutable uplink : Scotch_sim.Link.t option;
  flows : (int, flow_record) Hashtbl.t; (* by packet flow_id *)
  mutable received_packets : int;
  mutable on_receive : Packet.t -> unit;
}

let create engine ~id ~name =
  { engine; id; name; mac = Mac.of_host_id id; ip = Ipv4_addr.of_host_id id; uplink = None;
    flows = Hashtbl.create 64; received_packets = 0;
    on_receive = (fun _ -> ()) }

let set_uplink t link = t.uplink <- Some link

(** [send t pkt] transmits on the host's uplink. *)
let send t pkt =
  match t.uplink with
  | None -> invalid_arg (t.name ^ ": host has no uplink")
  | Some link -> Scotch_sim.Link.send link pkt

(** [deliver t pkt] is called by the network when a packet reaches this
    host (directly or via a delivery tunnel).  All remaining
    encapsulations are stripped, reception is recorded. *)
let deliver t pkt =
  let pkt = Packet.strip pkt in
  let now = Scotch_sim.Engine.now t.engine in
  let delay = now -. pkt.Packet.meta.created in
  t.received_packets <- t.received_packets + 1;
  let fid = pkt.Packet.meta.flow_id in
  (match Hashtbl.find t.flows fid with
  | r ->
    r.packets <- r.packets + 1;
    r.delay_sum <- r.delay_sum +. delay
  | exception Not_found ->
    Hashtbl.replace t.flows fid { packets = 1; first_seen = now; delay_sum = delay });
  t.on_receive pkt

let id t = t.id
let name t = t.name
let mac t = t.mac
let ip t = t.ip
let received_packets t = t.received_packets

(** Number of distinct flows from which at least one packet arrived. *)
let flows_seen t = Hashtbl.length t.flows

let flow_record t flow_id = Hashtbl.find_opt t.flows flow_id

(** Register a callback invoked on each delivered (decapsulated) packet. *)
let on_receive t f = t.on_receive <- f
