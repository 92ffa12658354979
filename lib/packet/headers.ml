(** Protocol header records: Ethernet, IPv4, TCP, UDP, and the tunnel
    encapsulations Scotch uses (MPLS labels, VLAN tags).

    The simulator keeps packets structured (no byte-level store on the
    hot path); {!Codec} serializes to and from real wire bytes for
    interoperability-style testing. *)

(** {1 Ethernet} *)

module Ethernet = struct
  type t = {
    src : Mac.t;
    dst : Mac.t;
    ethertype : int; (* as on the wire, after any VLAN tags *)
  }

  let ethertype_ipv4 = 0x0800
  let ethertype_mpls = 0x8847
  let ethertype_vlan = 0x8100

  let header_bytes = 14

  let make ~src ~dst ~ethertype = { src; dst; ethertype }

  let pp fmt t =
    Format.fprintf fmt "eth{%a->%a type=0x%04x}" Mac.pp t.src Mac.pp t.dst t.ethertype
end

(** {1 IPv4} *)

module Ipv4 = struct
  type t = {
    src : Ipv4_addr.t;
    dst : Ipv4_addr.t;
    proto : int;  (* 6 = TCP, 17 = UDP *)
    ttl : int;
    dscp : int;
    ident : int;  (* identification field, used for flow bookkeeping *)
  }

  let proto_tcp = 6
  let proto_udp = 17
  let proto_gre = 47

  let header_bytes = 20

  let make ?(ttl = 64) ?(dscp = 0) ?(ident = 0) ~src ~dst ~proto () =
    { src; dst; proto; ttl; dscp; ident }

  let pp fmt t =
    Format.fprintf fmt "ip{%a->%a proto=%d ttl=%d}" Ipv4_addr.pp t.src Ipv4_addr.pp t.dst
      t.proto t.ttl
end

(** {1 TCP} *)

module Tcp = struct
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int;
    ack_no : int;
    flags : flags;
    window : int;
  }

  let header_bytes = 20

  let no_flags = { syn = false; ack = false; fin = false; rst = false }
  let syn_flags = { no_flags with syn = true }

  let make ?(flags = no_flags) ~src_port ~dst_port () =
    { src_port; dst_port; seq = 0; ack_no = 0; flags; window = 65535 }

  let flags_to_int f =
    (if f.fin then 0x01 else 0)
    lor (if f.syn then 0x02 else 0)
    lor (if f.rst then 0x04 else 0)
    lor if f.ack then 0x10 else 0

  let flags_of_int i =
    { fin = i land 0x01 <> 0; syn = i land 0x02 <> 0; rst = i land 0x04 <> 0;
      ack = i land 0x10 <> 0 }

  let pp fmt t =
    Format.fprintf fmt "tcp{%d->%d%s}" t.src_port t.dst_port (if t.flags.syn then " SYN" else "")
end

(** {1 UDP} *)

module Udp = struct
  type t = { src_port : int; dst_port : int }

  let header_bytes = 8

  let make ~src_port ~dst_port = { src_port; dst_port }

  let pp fmt t = Format.fprintf fmt "udp{%d->%d}" t.src_port t.dst_port
end

(** {1 Transport-layer sum} *)

module L4 = struct
  type t =
    | Tcp of Tcp.t
    | Udp of Udp.t
    | Other of int (* raw protocol number payloads we do not interpret *)

  let proto = function
    | Tcp _ -> Ipv4.proto_tcp
    | Udp _ -> Ipv4.proto_udp
    | Other p -> p

  (* A packet's ports, as the flow key and the classifier read them:
     0 when the transport has none. *)
  let src_port = function
    | Tcp t -> t.Tcp.src_port
    | Udp u -> u.Udp.src_port
    | Other _ -> 0

  let dst_port = function
    | Tcp t -> t.Tcp.dst_port
    | Udp u -> u.Udp.dst_port
    | Other _ -> 0

  let header_bytes = function
    | Tcp _ -> Tcp.header_bytes
    | Udp _ -> Udp.header_bytes
    | Other _ -> 0

  let pp fmt = function
    | Tcp t -> Tcp.pp fmt t
    | Udp u -> Udp.pp fmt u
    | Other p -> Format.fprintf fmt "l4{proto=%d}" p
end

(** {1 Tunnel encapsulations}

    Scotch overlay tunnels may be "configured using any of the available
    tunneling protocols, such as GRE, MPLS, MAC-in-MAC" (§4.1).  We model
    MPLS label stacks, which the paper's evaluation uses; the inner label
    carries the original ingress port (§5.2).  VLAN tags only arrive
    from the wire. *)

module Encap = struct
  type t =
    | Mpls of { label : int }             (* 20-bit label; bottom-of-stack is
                                             computed at serialization time *)
    | Vlan of { vid : int }               (* 12-bit VLAN id *)

  let mpls label =
    if label < 0 || label > 0xFFFFF then invalid_arg "Encap.mpls: 20-bit label";
    Mpls { label }

  let vlan vid =
    if vid < 0 || vid > 0xFFF then invalid_arg "Encap.vlan: 12-bit vid";
    Vlan { vid }

  let header_bytes = function
    | Mpls _ -> 4
    | Vlan _ -> 4

  let pp fmt = function
    | Mpls { label } -> Format.fprintf fmt "mpls{%d}" label
    | Vlan { vid } -> Format.fprintf fmt "vlan{%d}" vid
end
