(** Protocol header records: Ethernet, IPv4, TCP, UDP, and the tunnel
    encapsulations the Scotch overlay uses (MPLS labels, VLAN tags). *)

module Ethernet : sig
  type t = {
    src : Mac.t;
    dst : Mac.t;
    ethertype : int; (* as on the wire, after any VLAN tags *)
  }

  val ethertype_ipv4 : int
  val ethertype_mpls : int
  val ethertype_vlan : int
  val header_bytes : int
  val make : src:Mac.t -> dst:Mac.t -> ethertype:int -> t
  val pp : Format.formatter -> t -> unit
end

module Ipv4 : sig
  type t = {
    src : Ipv4_addr.t;
    dst : Ipv4_addr.t;
    proto : int;
    ttl : int;
    dscp : int;
    ident : int;
  }

  val proto_tcp : int
  val proto_udp : int
  val proto_gre : int
  val header_bytes : int

  val make :
    ?ttl:int -> ?dscp:int -> ?ident:int -> src:Ipv4_addr.t -> dst:Ipv4_addr.t -> proto:int ->
    unit -> t

  val pp : Format.formatter -> t -> unit
end

module Tcp : sig
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int;
    ack_no : int;
    flags : flags;
    window : int;
  }

  val header_bytes : int
  val syn_flags : flags

  val make : ?flags:flags -> src_port:int -> dst_port:int -> unit -> t

  val flags_to_int : flags -> int
  val flags_of_int : int -> flags
end

module Udp : sig
  type t = { src_port : int; dst_port : int }

  val header_bytes : int
  val make : src_port:int -> dst_port:int -> t
end

(** Transport-layer sum. *)
module L4 : sig
  type t =
    | Tcp of Tcp.t
    | Udp of Udp.t
    | Other of int  (** raw protocol number we do not interpret *)

  (** The IP protocol number the transport is carried under. *)
  val proto : t -> int

  (** The transport's ports, 0 when it has none. *)
  val src_port : t -> int

  val dst_port : t -> int
  val header_bytes : t -> int
  val pp : Format.formatter -> t -> unit
end

(** Tunnel encapsulations: the Scotch overlay may ride "GRE, MPLS,
    MAC-in-MAC, etc." (§4.1); this model rides MPLS, whose inner label
    carries the original ingress port (§5.2). *)
module Encap : sig
  type t =
    | Mpls of { label : int }  (** 20-bit label; bottom-of-stack is computed on the wire *)
    | Vlan of { vid : int }    (** 12-bit VLAN id *)

  (** Raises [Invalid_argument] on out-of-range labels/vids. *)
  val mpls : int -> t

  val vlan : int -> t
  val header_bytes : t -> int
  val pp : Format.formatter -> t -> unit
end
