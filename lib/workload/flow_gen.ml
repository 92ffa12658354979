(** Flow shapes and packet construction shared by all traffic
    sources; flow ids come from [Engine.fresh_flow_id]. *)

open Scotch_packet

(** Shape of one flow: [packets] datagrams of [payload] bytes, one every
    [interval] seconds. *)
type flow_spec = {
  packets : int;
  payload : int;
  interval : float;
}

(** A single-SYN "new flow" probe — what the Fig. 3/4 clients and the
    hping3 attacker emit (each packet is a new flow to the switch). *)
let syn_spec = { packets = 1; payload = 0; interval = 0.0 }

(** Description of one launched flow, for later success accounting. *)
type launched = {
  flow_id : int;
  key : Flow_key.t;
  started : float;
  spec : flow_spec;
}

(** [packet ~spec] builds the first packet of a flow.  TCP SYN for
    single-packet probe flows, UDP data otherwise. *)
let packet ~flow_id ~created ~src_mac ~dst_mac ~ip_src ~ip_dst ~src_port ~dst_port ~spec () =
  if spec.packets = 1 && spec.payload = 0 then
    Packet.tcp_syn ~flow_id ~created ~src_mac ~dst_mac ~ip_src ~ip_dst ~src_port ~dst_port ()
  else
    Packet.udp_data ~payload_len:spec.payload ~flow_id ~created ~src_mac ~dst_mac ~ip_src
      ~ip_dst ~src_port ~dst_port ()
