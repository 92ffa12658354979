(** Point-to-point simplex link with bandwidth, propagation delay and a
    drop-tail queue.

    Transmission is modeled as a busy server: a packet occupies the link
    for [size / bandwidth] seconds, then arrives [latency] seconds later
    at the sink.  When more than [queue_capacity] packets are waiting
    the tail is dropped (counted).  The testbed links (1/10 GbE data
    ports, 1 GbE management ports, §3.2) are instances of this. *)

open Scotch_packet

type stats = {
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
}

type t = {
  engine : Engine.t;
  bandwidth_bps : float;       (* bits per second *)
  latency : float;             (* propagation delay, seconds *)
  queue_capacity : int;        (* packets *)
  queue : Packet.t Queue.t;
  mutable busy : bool;
  mutable up : bool; (* fault injection: a down link loses every packet *)
  mutable sink : Packet.t -> unit;
  stats : stats;
}

(** [create engine ~bandwidth_bps ~latency ~queue_capacity] makes an
    idle link.  Attach the receiver with {!connect}. *)
let create engine ~bandwidth_bps ~latency ~queue_capacity =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  { engine; bandwidth_bps; latency; queue_capacity; queue = Queue.create ();
    busy = false; up = true; sink = (fun _ -> ());
    stats = { delivered = 0; dropped = 0; bytes = 0 } }

(** [connect t sink] sets the function receiving delivered packets. *)
let connect t sink = t.sink <- sink

let transmission_time t pkt =
  float_of_int (Packet.size pkt * 8) /. t.bandwidth_bps

let rec start_transmission t =
  match Queue.take_opt t.queue with
  | None -> t.busy <- false
  | Some pkt ->
    t.busy <- true;
    let tx = transmission_time t pkt in
    ignore
      (Engine.schedule t.engine ~delay:tx (fun () ->
           (* Packet leaves the transmitter; propagation runs in parallel
              with the next transmission. *)
           t.stats.delivered <- t.stats.delivered + 1;
           t.stats.bytes <- t.stats.bytes + Packet.size pkt;
           ignore (Engine.schedule t.engine ~delay:t.latency (fun () -> t.sink pkt));
           start_transmission t))

(** [send t pkt] enqueues [pkt] for transmission; drops (and counts) it
    when the queue is full, and loses it when the link is down (link-flap
    fault injection). *)
let send t pkt =
  if not t.up then ()
  else if t.busy then begin
    if Queue.length t.queue >= t.queue_capacity then t.stats.dropped <- t.stats.dropped + 1
    else Queue.push pkt t.queue
  end
  else begin
    Queue.push pkt t.queue;
    start_transmission t
  end

(** Administrative state (fault injection).  Taking a link down empties
    its queue — in-flight packets are lost, exactly like a cable pull;
    bringing it back up restores service for subsequent sends. *)
let set_up t up =
  t.up <- up;
  if not up then Queue.clear t.queue

let is_up t = t.up

let delivered t = t.stats.delivered
let dropped t = t.stats.dropped
let bytes_delivered t = t.stats.bytes
let queue_length t = Queue.length t.queue
