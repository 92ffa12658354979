(** Binary wire codec for the OpenFlow message subset.

    Framing follows OpenFlow 1.3: an 8-byte header (version 0x04, type,
    length, xid) then a type-specific body; matches and actions are
    TLV-encoded.  The guaranteed (and property-tested) invariants are
    [Bytes.length (encode m) = size m] for every [m], and
    [decode (encode m) = m] whenever [size m <= 0xFFFF].

    The header length and the per-message record counts are u16 fields,
    so a larger message does not round-trip: its length field wraps and
    {!decode} rejects it.  Real switches split such multipart replies
    (OFPMPF_REPLY_MORE); the simulator's channel ledger counts the
    unsplit {!size}, so a large flow-stats reply (70 bytes per exact-flow
    record) is charged as one message past 64 KiB. *)

exception Parse_error of string

(** [size m = Bytes.length (encode m)], computed by arithmetic without
    allocating.  This is what the detection loop charges per message. *)
val size : Of_msg.t -> int

(** A flow-stats reply's {!size} is [flow_stats_reply_framing] (the
    header and the multipart framing) plus [flow_stat_size] of each of
    its records, so a reader walking the records can charge the reply
    in the same pass. *)
val flow_stats_reply_framing : int

val flow_stat_size : Of_msg.Stats.flow_stat -> int

(** Render one framed message. *)
val encode : Of_msg.t -> Bytes.t

(** Parse one framed message.  Raises {!Parse_error} on malformed
    input (wrong version, bad length, unknown type, truncation). *)
val decode : Bytes.t -> Of_msg.t
