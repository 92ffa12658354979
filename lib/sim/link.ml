(** Point-to-point simplex link with bandwidth, propagation delay and a
    drop-tail queue.

    Transmission is modeled as a busy server: a packet occupies the link
    for [size / bandwidth] seconds, then arrives [latency] seconds later
    at the sink.  When more than [queue_capacity] packets are waiting
    the tail is dropped (counted).  The testbed links (1/10 GbE data
    ports, 1 GbE management ports, §3.2) are instances of this.

    A hop allocates nothing.  Every packet on the link sits in one ring,
    oldest first: the [n_flight] propagating, then the one in service,
    then those waiting.  Packets leave in the order they arrived (one
    server) and the latency is constant, so they also arrive in that
    order, at the head.  Two engine handlers, registered on the link's
    first send, end a transmission and deliver the oldest propagating
    packet.  The link keeps the last packet size it served with that
    size's transmission time, so a run of equal-size packets hands the
    engine one boxed float; only a change of size boxes a new one. *)

open Scotch_packet

type t = {
  engine : Engine.t;
  bandwidth_bps : float;       (* bits per second *)
  latency : float;             (* propagation delay, seconds *)
  queue_capacity : int;        (* packets *)
  packets : Packet.t Ring.t;   (* propagating, in service, waiting *)
  mutable n_flight : int;      (* propagating: the ring's first *)
  mutable up : bool; (* fault injection: a down link accepts nothing *)
  mutable sink : Packet.t -> unit;
  mutable handlers : (Engine.handler * Engine.handler) option; (* transmitted, arrive *)
  mutable last_size : int;     (* bytes of the last packet served, -1 before any *)
  mutable last_time : float;   (* its transmission time *)
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
}

(** [create engine ~bandwidth_bps ~latency ~queue_capacity] makes an
    idle link.  Attach the receiver with {!connect}. *)
let create engine ~bandwidth_bps ~latency ~queue_capacity =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  { engine; bandwidth_bps; latency; queue_capacity; packets = Ring.create Packet.placeholder;
    n_flight = 0; up = true; sink = (fun _ -> ()); handlers = None; last_size = -1;
    last_time = 0.0; delivered = 0; dropped = 0; bytes = 0 }

(** [connect t sink] sets the function receiving delivered packets. *)
let connect t sink = t.sink <- sink

(* A packet is in service whenever one is not propagating: a queued
   packet goes into service as soon as the server frees. *)
let busy t = Ring.length t.packets > t.n_flight

(* [size / bandwidth], boxed afresh only when the size differs from
   the last packet's. *)
let transmission_time t pkt =
  let size = Packet.size pkt in
  if size <> t.last_size then begin
    t.last_size <- size;
    t.last_time <- float_of_int (size * 8) /. t.bandwidth_bps
  end;
  t.last_time

(* Start transmitting the packet after the propagating ones. *)
let rec serve t =
  let pkt = Ring.get t.packets t.n_flight in
  Engine.fire t.engine ~delay:(transmission_time t pkt) (fst (handlers t))

(* The packet in service leaves the transmitter; propagation runs in
   parallel with the next transmission. *)
and transmitted t () =
  let pkt = Ring.get t.packets t.n_flight in
  t.delivered <- t.delivered + 1;
  t.bytes <- t.bytes + Packet.size pkt;
  t.n_flight <- t.n_flight + 1;
  Engine.fire t.engine ~delay:t.latency (snd (handlers t));
  if busy t then serve t

and arrive t () =
  let pkt = Ring.pop t.packets in
  t.n_flight <- t.n_flight - 1;
  t.sink pkt

and handlers t =
  match t.handlers with
  | Some hs -> hs
  | None ->
    let hs = (Engine.handler t.engine (transmitted t), Engine.handler t.engine (arrive t)) in
    t.handlers <- Some hs;
    hs

let queue_length t = max 0 (Ring.length t.packets - t.n_flight - 1)

(** [send t pkt] enqueues [pkt] for transmission; drops (and counts) it
    when the queue is full, and ignores it, counting nothing, when the
    link is down (link-flap fault injection).  An idle link has an empty
    queue, so [pkt] goes straight into service. *)
let send t pkt =
  if not t.up then ()
  else if busy t then begin
    if queue_length t >= t.queue_capacity then t.dropped <- t.dropped + 1
    else Ring.push t.packets pkt
  end
  else begin
    Ring.push t.packets pkt;
    serve t
  end

(** Administrative state (fault injection).  Taking a link down empties
    its queue: the waiting packets are lost, while the packet in service
    and those propagating still arrive and count as delivered.  Bringing
    it back up restores service for subsequent sends. *)
let set_up t up =
  t.up <- up;
  if not up then Ring.truncate t.packets (min (Ring.length t.packets) (t.n_flight + 1))

let is_up t = t.up

let delivered t = t.delivered
let dropped t = t.dropped
let bytes_delivered t = t.bytes
