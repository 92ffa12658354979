(** Flow shapes and packet construction shared by all traffic
    sources; flow ids come from [Engine.fresh_flow_id]. *)

open Scotch_packet

(** Shape of one flow: [packets] datagrams of [payload] bytes, one
    every [interval] seconds. *)
type flow_spec = {
  packets : int;
  payload : int;
  interval : float;
}

(** A single-SYN "new flow" probe — what the Fig. 3/4 clients and the
    hping3 attacker emit. *)
val syn_spec : flow_spec

(** One launched flow, for later success accounting. *)
type launched = {
  flow_id : int;
  key : Flow_key.t;
  started : float;
  spec : flow_spec;
}

(** The first packet of a flow: TCP SYN for single-packet probes, UDP
    data otherwise.  Later packets are this one restamped with
    {!Packet.with_meta}. *)
val packet :
  flow_id:int -> created:float -> src_mac:Mac.t -> dst_mac:Mac.t -> ip_src:Ipv4_addr.t ->
  ip_dst:Ipv4_addr.t -> src_port:int -> dst_port:int -> spec:flow_spec -> unit -> Packet.t
