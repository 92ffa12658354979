(** A device's output stage: sends that wait out the device's constant
    forwarding latency, then reach their links.

    The delay is the same for every send, so sends reach their links in
    the order they were made: they wait in a ring, and each is handed
    on by the one handler the stage registers, with no allocation per
    packet. *)

type t

(** [create engine ~delay] makes an empty stage whose sends wait
    [delay] seconds. *)
val create : Engine.t -> delay:float -> t

(** [send t out pkt] sends [pkt] on [out] after the delay.  [out] is
    the device's [Some link], passed as it is held so that nothing is
    allocated; [None] is ignored when the send is due. *)
val send : t -> Link.t option -> Scotch_packet.Packet.t -> unit
