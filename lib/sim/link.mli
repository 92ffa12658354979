(** Point-to-point simplex link with bandwidth, propagation delay and a
    drop-tail queue.

    Transmission is a busy server: a packet occupies the link for
    [size / bandwidth] seconds, then arrives [latency] seconds later at
    the sink; propagation overlaps with the next transmission.  When
    more than [queue_capacity] packets wait, the tail is dropped. *)

type t

(** Raises [Invalid_argument] on non-positive bandwidth or negative
    latency. *)
val create :
  Engine.t ->
  bandwidth_bps:float ->
  latency:float ->
  queue_capacity:int ->
  t

(** Set the function receiving delivered packets. *)
val connect : t -> (Scotch_packet.Packet.t -> unit) -> unit

(** Enqueue a packet for transmission; drops (and counts) it when the
    queue is full.  A link that is administratively down ignores it,
    counting nothing. *)
val send : t -> Scotch_packet.Packet.t -> unit

(** Administrative state (fault injection).  Taking a link down empties
    its queue: the waiting packets are lost, while the packet in service
    and those propagating still arrive and count as delivered. *)
val set_up : t -> bool -> unit

val is_up : t -> bool

val delivered : t -> int
val dropped : t -> int

val bytes_delivered : t -> int
val queue_length : t -> int
