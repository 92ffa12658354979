(** The central OpenFlow controller (Ryu-like).

    The controller is deliberately {e not} a bottleneck: "a single node
    multithreaded controller can handle millions of PacketIn/sec" —
    message handling costs only the control-channel latency.  What is
    scarce is the switches' control-path capacity, which applications
    must manage (that is Scotch's job).

    Applications register callbacks; the first application whose
    [packet_in] handler returns [true] consumes the event.  Replies to
    controller-initiated requests (stats, echo, barrier) are routed back
    to per-xid continuations. *)

open Scotch_openflow
open Scotch_switch
open Scotch_util

type sw = {
  dpid : Of_types.datapath_id;
  device : Switch.t;
  send_raw : Of_msg.t -> unit; (* controller -> switch channel *)
  pin_meter : Stats.Rate_meter.t; (* Packet-In arrival rate (§4.2 monitoring) *)
  mutable alive : bool;
  mutable last_echo_reply : float;
  mutable flow_mods_sent : int;
  (* control-channel impairment (fault injection): extra one-way latency
     and a loss probability applied to both directions of the channel *)
  mutable chan_extra_latency : float;
  mutable chan_drop_p : float;
  mutable chan_dropped : int; (* messages lost to the impairment *)
  mutable chan_dup_p : float;
  mutable chan_reorder_p : float;
  mutable chan_duped : int; (* messages delivered twice by the impairment *)
  mutable chan_reordered : int; (* messages held back past later sends *)
}

type app = {
  packet_in : sw -> Of_msg.Packet_in.t -> bool;
  switch_dead : sw -> unit;
  switch_alive : sw -> unit;
}

type counters = {
  mutable packet_ins : int;
  mutable flow_mods : int;
  mutable unhandled_packet_ins : int;
  mutable expired_requests : int;
  mutable deferred_msgs : int; (* arrivals re-queued past a pause window *)
}

(* A pending request: the reply continuation, kept under its xid until
   the reply or the request's expiry event takes it out (the reply never
   arrives when it is dropped on an impaired channel, or the switch
   died).  [sent_at]/[req_dpid] let the reply path emit the xid
   round-trip span. *)
type pending_req = {
  k : Of_msg.payload -> unit;
  sent_at : float;
  req_dpid : int;
}

type t = {
  engine : Scotch_sim.Engine.t;
  topo : Scotch_topo.Topology.t;
  chan_rng : Scotch_util.Rng.t;
      (* control-channel latency jitter: the management network is a
         real packet network with variable queueing *)
  switches : (int, sw) Hashtbl.t;
  mutable apps : app list; (* in registration order *)
  pending : (int, pending_req) Hashtbl.t; (* by xid *)
  mutable next_xid : int;
  counters : counters;
  mutable paused_until : float;
      (* fault injection: a GC-stall-style freeze — incoming messages
         are deferred (in arrival order) until this absolute time *)
  rtt_h : Scotch_obs.Registry.histogram;
      (* request→reply round-trip (virtual seconds); obs-gated *)
}

(** Sliding window of the per-switch Packet-In rate monitor, s. *)
let pin_window = 1.0

(** [create engine topo] builds a controller with a {!pin_window}-second
    sliding window for per-switch Packet-In rate monitoring. *)
let create engine topo =
  let t =
    { engine; topo; chan_rng = Scotch_util.Rng.create 0xC7A4;
      switches = Hashtbl.create 16; apps = []; pending = Hashtbl.create 64;
      next_xid = 1;
      counters =
        { packet_ins = 0; flow_mods = 0; unhandled_packet_ins = 0; expired_requests = 0;
          deferred_msgs = 0 };
      paused_until = 0.0;
      rtt_h =
        Scotch_obs.Obs.histogram ~help:"xid request-to-reply round trip (virtual seconds)"
          ~lo:0.0 ~hi:0.2 ~bins:50 "scotch_controller_rtt_seconds" }
  in
  let module O = Scotch_obs.Obs in
  let c = t.counters in
  O.counter_fn ~help:"Packet-In messages received" "scotch_controller_packet_ins_total"
    (fun () -> c.packet_ins);
  O.counter_fn ~help:"FlowMods sent" "scotch_controller_flow_mods_total"
    (fun () -> c.flow_mods);
  O.counter_fn ~help:"Packet-Ins no app consumed" "scotch_controller_unhandled_packet_ins_total"
    (fun () -> c.unhandled_packet_ins);
  O.counter_fn ~help:"Requests whose reply never arrived before the deadline"
    "scotch_controller_expired_requests_total" (fun () -> c.expired_requests);
  O.counter_fn ~help:"Messages deferred past a controller pause window"
    "scotch_controller_deferred_msgs_total" (fun () -> c.deferred_msgs);
  O.gauge_fn ~help:"In-flight requests awaiting replies" "scotch_controller_pending_requests"
    (fun () -> float_of_int (Hashtbl.length t.pending));
  t

let engine t = t.engine
let topo t = t.topo
let counters t = t.counters

let fresh_xid t =
  let x = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  x

(** [register_app t app] appends [app] to the dispatch chain. *)
let register_app t app = t.apps <- t.apps @ [ app ]

let app ?(packet_in = fun _ _ -> false) ?(switch_dead = fun _ -> ())
    ?(switch_alive = fun _ -> ()) () =
  { packet_in; switch_dead; switch_alive }

let switch t dpid = Hashtbl.find_opt t.switches dpid
let switch_exn t dpid = Hashtbl.find t.switches dpid
let iter_switches t f = Hashtbl.iter (fun _ sw -> f sw) t.switches

(* Route a reply back to its pending per-xid continuation, if any. *)
let dispatch_pending t (msg : Of_msg.t) =
  match Hashtbl.find_opt t.pending msg.Of_msg.xid with
  | Some req ->
    Hashtbl.remove t.pending msg.Of_msg.xid;
    if Scotch_obs.Obs.is_enabled () then begin
      let rtt = Scotch_sim.Engine.now t.engine -. req.sent_at in
      Scotch_obs.Registry.observe t.rtt_h rtt;
      Scotch_obs.Obs.span ~name:"controller.rtt" ~cat:"controller" ~ts:req.sent_at ~dur:rtt
        ~tid:req.req_dpid ~args:[]
    end;
    req.k msg.Of_msg.payload
  | None -> ()

(* The first app whose [packet_in] returns [true] consumes the event:
   [List.exists] by direct recursion, which allocates no closure per
   Packet-In. *)
let rec offer_packet_in sw pi = function
  | [] -> false
  | a :: rest -> a.packet_in sw pi || offer_packet_in sw pi rest

let rec handle_message t (sw : sw) (msg : Of_msg.t) =
  if Scotch_sim.Engine.now t.engine < t.paused_until then begin
    (* frozen controller: the message sits in the (unbounded) socket
       buffer and is handled when the pause ends — same-time deferred
       events fire in scheduling order, so arrival order is kept *)
    t.counters.deferred_msgs <- t.counters.deferred_msgs + 1;
    Scotch_sim.Engine.schedule_at t.engine ~at:t.paused_until (fun () -> handle_message t sw msg)
  end
  else
  match msg.Of_msg.payload with
  | Of_msg.Packet_in pi ->
    t.counters.packet_ins <- t.counters.packet_ins + 1;
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:"controller.packet_in" ~cat:"controller"
        ~ts:(Scotch_sim.Engine.now t.engine) ~tid:sw.dpid ~args:[];
    Stats.Rate_meter.tick sw.pin_meter ~now:(Scotch_sim.Engine.now t.engine);
    let handled = offer_packet_in sw pi t.apps in
    if not handled then t.counters.unhandled_packet_ins <- t.counters.unhandled_packet_ins + 1
  | Of_msg.Echo_reply ->
    sw.last_echo_reply <- Scotch_sim.Engine.now t.engine;
    if not sw.alive then begin
      (* heartbeat re-aliveness: a switch previously declared dead is
         answering again — fire [switch_alive] once per transition so
         apps can resync state the switch may have lost meanwhile *)
      sw.alive <- true;
      List.iter (fun a -> a.switch_alive sw) t.apps
    end;
    (* heartbeat Echos go out via [send] (no pending entry), so this
       dispatch only ever fires for explicit {!request} probes —
       e.g. the circuit breaker's RTT measurements *)
    dispatch_pending t msg
  | Of_msg.Echo_request -> ()
  | Of_msg.Flow_stats_reply _ | Of_msg.Group_stats_reply _ | Of_msg.Telemetry_reply _
  | Of_msg.Barrier_reply | Of_msg.Error _ -> dispatch_pending t msg
  | Of_msg.Flow_mod _ | Of_msg.Group_mod _ | Of_msg.Packet_out _ | Of_msg.Flow_stats_request _
  | Of_msg.Group_stats_request | Of_msg.Telemetry_request | Of_msg.Barrier_request -> ()

(** [connect t device ~latency] attaches a switch over a control channel
    with one-way [latency] (the management-port path of Fig. 2). *)
let connect t device ~latency =
  let dpid = Switch.dpid device in
  if Hashtbl.mem t.switches dpid then invalid_arg "Controller.connect: duplicate dpid";
  let jittered sw = (latency +. sw.chan_extra_latency) *. (0.9 +. Scotch_util.Rng.float t.chan_rng 0.2) in
  (* the drop coin is only tossed while an impairment is active, so the
     jitter stream — and hence every unimpaired run — is untouched *)
  let dropped sw =
    sw.chan_drop_p > 0.0 && Scotch_util.Rng.bernoulli t.chan_rng sw.chan_drop_p
    && begin sw.chan_dropped <- sw.chan_dropped + 1; true end
  in
  (* the dup and reorder coins follow the same rule as the drop coin:
     tossed only while the matching impairment is active *)
  let duped sw =
    sw.chan_dup_p > 0.0 && Scotch_util.Rng.bernoulli t.chan_rng sw.chan_dup_p
    && begin sw.chan_duped <- sw.chan_duped + 1; true end
  in
  let reorder_hold sw =
    if sw.chan_reorder_p > 0.0 && Scotch_util.Rng.bernoulli t.chan_rng sw.chan_reorder_p
    then begin
      sw.chan_reordered <- sw.chan_reordered + 1;
      (* held back several base latencies, so messages sent later
         overtake this one *)
      Scotch_util.Rng.float t.chan_rng (4.0 *. (latency +. sw.chan_extra_latency))
    end
    else 0.0
  in
  (* one delivery of [deliver], jittered and maybe held back *)
  let schedule_delivery sw deliver =
    Scotch_sim.Engine.schedule t.engine ~delay:(jittered sw +. reorder_hold sw) deliver
  in
  let transmit sw deliver =
    if not (dropped sw) then begin
      schedule_delivery sw deliver;
      if duped sw then schedule_delivery sw deliver
    end
  in
  let rec sw =
    { dpid; device;
      send_raw =
        (fun msg -> transmit sw (fun () -> Ofa.deliver_message (Switch.ofa device) msg));
      pin_meter = Stats.Rate_meter.create ~window:pin_window;
      alive = true; last_echo_reply = 0.0; flow_mods_sent = 0;
      chan_extra_latency = 0.0; chan_drop_p = 0.0; chan_dropped = 0;
      chan_dup_p = 0.0; chan_reorder_p = 0.0; chan_duped = 0; chan_reordered = 0 }
  in
  Hashtbl.replace t.switches dpid sw;
  let module O = Scotch_obs.Obs in
  let labels = [ ("dpid", string_of_int dpid) ] in
  O.counter_fn ~help:"Control-channel messages lost to impairment" ~labels
    "scotch_controller_chan_dropped_total" (fun () -> sw.chan_dropped);
  O.counter_fn ~help:"Control-channel messages duplicated by impairment" ~labels
    "scotch_controller_chan_duped_total" (fun () -> sw.chan_duped);
  O.counter_fn ~help:"Control-channel messages reordered by impairment" ~labels
    "scotch_controller_chan_reordered_total" (fun () -> sw.chan_reordered);
  O.counter_fn ~help:"FlowMods sent to this switch" ~labels
    "scotch_controller_flow_mods_sent_total" (fun () -> sw.flow_mods_sent);
  O.gauge_fn ~help:"Packet-In arrival rate over the monitoring window (1/s)" ~labels
    "scotch_controller_pin_rate" (fun () ->
      Stats.Rate_meter.rate sw.pin_meter ~now:(Scotch_sim.Engine.now t.engine));
  Ofa.connect_controller (Switch.ofa device) (fun msg ->
      transmit sw (fun () -> handle_message t sw msg));
  sw

(** Control-channel impairment (fault injection): add [extra_latency]
    seconds one-way and drop each message with probability [drop_p], in
    both directions.  [set_channel_impairment sw ~extra_latency:0.0
    ~drop_p:0.0] clears it. *)
let set_channel_impairment (sw : sw) ~extra_latency ~drop_p =
  if extra_latency < 0.0 then invalid_arg "set_channel_impairment: negative latency";
  if drop_p < 0.0 || drop_p >= 1.0 then invalid_arg "set_channel_impairment: drop_p in [0,1)";
  sw.chan_extra_latency <- extra_latency;
  sw.chan_drop_p <- drop_p

(** Control-channel chaos (fault injection): duplicate each message
    with probability [dup_p] (delivered twice, independently jittered)
    and hold each message back with probability [reorder_p] (an extra
    uniform delay of up to four base latencies, so later messages
    overtake it) — in both directions.  Like the drop coin, the chaos
    coins are only tossed while the matching probability is nonzero, so
    runs that never set them are bit-identical.  Pass zeros to clear. *)
let set_channel_chaos (sw : sw) ~dup_p ~reorder_p =
  if dup_p < 0.0 || dup_p >= 1.0 then invalid_arg "set_channel_chaos: dup_p in [0,1)";
  if reorder_p < 0.0 || reorder_p >= 1.0 then
    invalid_arg "set_channel_chaos: reorder_p in [0,1)";
  sw.chan_dup_p <- dup_p;
  sw.chan_reorder_p <- reorder_p

(** Fault injection: freeze the controller until absolute time [until]
    (a stop-the-world GC pause, a failover hiccup).  Incoming messages
    are deferred in arrival order, not lost; outgoing sends by timers
    that still fire are unaffected.  Extends but never shortens a pause
    already in effect. *)
let pause t ~until = t.paused_until <- Stdlib.max t.paused_until until

(** {1 Sending} *)

let send t (sw : sw) payload =
  (match payload with
  | Of_msg.Flow_mod _ ->
    t.counters.flow_mods <- t.counters.flow_mods + 1;
    sw.flow_mods_sent <- sw.flow_mods_sent + 1
  | _ -> ());
  sw.send_raw (Of_msg.make ~xid:(fresh_xid t) payload)

(** [request t sw payload k ~deadline] sends a request and calls [k]
    on the matching reply.  The pending entry self-expires after
    [deadline] seconds: the continuation is dropped (never called),
    [on_timeout] fires instead, and [counters.expired_requests] is
    bumped, so a lost reply or a dead switch strands nothing.  An
    answered request's expiry event still runs at the deadline, and
    finds its xid gone. *)
let request ~deadline ?on_timeout t (sw : sw) payload k =
  if deadline <= 0.0 then invalid_arg "Controller.request: deadline must be positive";
  let xid = fresh_xid t in
  Scotch_sim.Engine.schedule t.engine ~delay:deadline (fun () ->
      if Hashtbl.mem t.pending xid then begin
        Hashtbl.remove t.pending xid;
        t.counters.expired_requests <- t.counters.expired_requests + 1;
        match on_timeout with Some f -> f () | None -> ()
      end);
  Hashtbl.replace t.pending xid { k; sent_at = Scotch_sim.Engine.now t.engine; req_dpid = sw.dpid };
  sw.send_raw (Of_msg.make ~xid payload)

(** Number of in-flight requests still awaiting a reply. *)
let pending_requests t = Hashtbl.length t.pending

(** Install a flow rule. *)
let install t sw ?(table_id = 0) ?(priority = 1) ?(idle_timeout = 0.0) ?(hard_timeout = 0.0)
    ~match_ ~instructions () =
  send t sw
    (Of_msg.Flow_mod
       (Of_msg.Flow_mod.add ~table_id ~priority ~idle_timeout ~hard_timeout ~match_
          ~instructions ()))

(** Remove rules matching exactly. *)
let uninstall t sw ?(table_id = 0) ~match_ () =
  send t sw (Of_msg.Flow_mod (Of_msg.Flow_mod.delete ~table_id ~match_ ()))

(** Send a Packet-Out executing [actions] on [packet]. *)
let packet_out t sw ?(in_port = 0) ~actions packet =
  send t sw (Of_msg.Packet_out { Of_msg.Packet_out.in_port; actions; packet })

(** Packet-In rate of a switch over the sliding window — the §4.2
    congestion signal. *)
let pin_rate t (sw : sw) = Stats.Rate_meter.rate sw.pin_meter ~now:(Scotch_sim.Engine.now t.engine)

(** {1 Liveness (vswitch heartbeat, §5.6)} *)

(** [start_heartbeat t ~period ~timeout] sends Echo requests every
    [period] seconds to every connected switch; a switch that hasn't
    replied within [timeout] is marked dead and every app's
    [switch_dead] hook fires (once per transition). *)
let start_heartbeat t ~period ~timeout =
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every t.engine ~period (fun () ->
         let now = Scotch_sim.Engine.now t.engine in
         iter_switches t (fun sw ->
             if sw.alive && now -. sw.last_echo_reply > timeout && sw.last_echo_reply > 0.0
             then begin
               sw.alive <- false;
               List.iter (fun a -> a.switch_dead sw) t.apps
             end;
             send t sw Of_msg.Echo_request))
  in
  ()
