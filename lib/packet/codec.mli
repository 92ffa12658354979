(** Byte-level serialization of {!Packet.t} to real wire format and
    back.

    The simulator never serializes packets on its hot path, but the
    codec keeps the header model honest: property tests assert that
    [parse (serialize p)] reconstructs every header field, and the byte
    layouts follow the RFCs (Ethernet II, RFC 791 IPv4, RFC 793 TCP,
    RFC 768 UDP, RFC 3032 MPLS).  Checksums are computed on write and
    ignored on read. *)

exception Parse_error of string

(** Render a packet as wire bytes.  MPLS labels stack directly under
    Ethernet; VLAN tags rewrite the Ethernet type chain. *)
val serialize : Packet.t -> Bytes.t

(** Reconstruct a packet from wire bytes, assigning fresh simulation
    metadata (created at time 0).  Raises {!Parse_error} on malformed
    input, and on GRE (IP protocol 47), which the model does not carry. *)
val parse : ?flow_id:int -> Bytes.t -> Packet.t
