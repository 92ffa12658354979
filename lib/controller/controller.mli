(** The central OpenFlow controller (Ryu-like).

    Deliberately {e not} a bottleneck ("a single node multithreaded
    controller can handle millions of PacketIn/sec") — message handling
    costs only the control-channel latency.  What is scarce is the
    switches' control-path capacity, which applications must manage
    (that is Scotch's job).

    Applications register callbacks; the first whose [packet_in]
    handler returns [true] consumes the event.  Replies to
    controller-initiated requests are routed back to per-xid
    continuations. *)

open Scotch_openflow
open Scotch_switch

(** Controller-side handle for one connected switch. *)
type sw = {
  dpid : Of_types.datapath_id;
  device : Switch.t;
  send_raw : Of_msg.t -> unit;
  pin_meter : Scotch_util.Stats.Rate_meter.t;
      (** Packet-In arrival rate — the §4.2 congestion signal *)
  mutable alive : bool;
  mutable last_echo_reply : float;
  mutable flow_mods_sent : int;
  mutable chan_extra_latency : float;
      (** control-channel impairment: extra one-way latency (fault injection) *)
  mutable chan_drop_p : float;
      (** control-channel impairment: per-message loss probability *)
  mutable chan_dropped : int;  (** messages lost to the impairment *)
  mutable chan_dup_p : float;
      (** control-channel chaos: per-message duplication probability *)
  mutable chan_reorder_p : float;
      (** control-channel chaos: per-message reorder (hold-back) probability *)
  mutable chan_duped : int;  (** messages delivered twice by the impairment *)
  mutable chan_reordered : int;  (** messages held back past later sends *)
}

type app = {
  packet_in : sw -> Of_msg.Packet_in.t -> bool;
  switch_dead : sw -> unit;
  switch_alive : sw -> unit;
      (** fired once when a switch previously marked dead answers the
          heartbeat again — resync hook (the switch may have rebooted
          empty) *)
}

type counters = {
  mutable packet_ins : int;
  mutable flow_mods : int;
  mutable unhandled_packet_ins : int;
  mutable expired_requests : int;
      (** pending requests reclaimed by their deadline (reply lost) *)
  mutable deferred_msgs : int;
      (** arrivals re-queued past a {!pause} window *)
}

type t

(** [create engine topo] builds a controller with a 1 s sliding window
    for per-switch Packet-In rate monitoring. *)
val create : Scotch_sim.Engine.t -> Scotch_topo.Topology.t -> t

val engine : t -> Scotch_sim.Engine.t
val topo : t -> Scotch_topo.Topology.t
val counters : t -> counters

(** Append an application to the dispatch chain. *)
val register_app : t -> app -> unit

(** Build an app record from optional callbacks. *)
val app :
  ?packet_in:(sw -> Of_msg.Packet_in.t -> bool) -> ?switch_dead:(sw -> unit) ->
  ?switch_alive:(sw -> unit) -> unit -> app

val switch : t -> Of_types.datapath_id -> sw option
val switch_exn : t -> Of_types.datapath_id -> sw

(** Attach a switch over a control channel with one-way [latency] (the
    management-port path of Fig. 2; ±10 % per-message jitter).  Raises
    on duplicate dpids. *)
val connect : t -> Switch.t -> latency:float -> sw

(** Send one message (counted by kind). *)
val send : t -> sw -> Of_msg.payload -> unit

(** Send a request and call the continuation on the matching reply.
    The pending entry self-expires after [deadline] seconds (positive,
    else [Invalid_argument]): the continuation is dropped,
    [on_timeout] fires instead and [counters.expired_requests] is
    bumped, so a lost reply or a dead switch strands no entry. *)
val request :
  deadline:float -> ?on_timeout:(unit -> unit) -> t -> sw -> Of_msg.payload ->
  (Of_msg.payload -> unit) -> unit

(** Number of in-flight requests still awaiting a reply. *)
val pending_requests : t -> int

(** Install a flow rule. *)
val install :
  t -> sw -> ?table_id:int -> ?priority:int -> ?idle_timeout:float -> ?hard_timeout:float ->
  match_:Of_match.t -> instructions:Of_action.instructions -> unit -> unit

(** Remove rules matching exactly. *)
val uninstall : t -> sw -> ?table_id:int -> match_:Of_match.t -> unit -> unit

(** Send a Packet-Out executing [actions] on [packet]. *)
val packet_out : t -> sw -> ?in_port:int -> actions:Of_action.t list ->
  Scotch_packet.Packet.t -> unit

(** Packet-In rate of a switch over the sliding window. *)
val pin_rate : t -> sw -> float

(** Control-channel impairment (fault injection): add [extra_latency]
    seconds one-way and drop each message with probability [drop_p]
    ([0 <= drop_p < 1]), in both directions.  Pass zeros to clear.  The
    loss coin is only tossed while an impairment is active, so
    unimpaired runs are bit-identical to runs without this call. *)
val set_channel_impairment : sw -> extra_latency:float -> drop_p:float -> unit

(** Control-channel chaos (fault injection): duplicate each message
    with probability [dup_p] (delivered twice, independently jittered)
    and hold each message back with probability [reorder_p] (an extra
    uniform delay of up to four base latencies, so later messages
    overtake it), in both directions ([0 <= p < 1] each).  Pass zeros
    to clear.  Like {!set_channel_impairment}'s loss coin, the chaos
    coins are only tossed while the matching probability is nonzero, so
    runs that never set them are bit-identical. *)
val set_channel_chaos : sw -> dup_p:float -> reorder_p:float -> unit

(** Fault injection: freeze the controller until absolute time [until]
    (a stop-the-world GC pause).  Incoming messages are deferred in
    arrival order, not lost.  Extends but never shortens a pause
    already in effect. *)
val pause : t -> until:float -> unit

(** Send Echo requests every [period] seconds to every switch; one that
    has not replied within [timeout] is marked dead and every app's
    [switch_dead] hook fires once (§5.6 heartbeat). *)
val start_heartbeat : t -> period:float -> timeout:float -> unit
