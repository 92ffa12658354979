(* Tests for Scotch_sim: the discrete-event engine and links. *)

open Scotch_sim
open Scotch_packet

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "c" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:1.5 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_now_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:3.25 (fun () -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-12)) "now at event" 3.25 !seen

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () -> ());
  Engine.run e;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       Engine.schedule_at e ~at:0.5 (fun () -> ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay raises" true
    (try
       Engine.schedule e ~delay:(-1.0) (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* A NaN time compares false with everything: queued, it would sit at
   the root and block every later event. *)
let test_engine_nan_raises () =
  let e = Engine.create () in
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  raises "NaN delay" (fun () -> Engine.schedule e ~delay:nan ignore);
  raises "NaN time" (fun () -> Engine.schedule_at e ~at:nan ignore);
  (* [every] returns its stop function; calling it at once keeps the
     result a unit *)
  raises "NaN period" (fun () -> Engine.every e ~period:nan ignore ());
  raises "NaN start" (fun () -> Engine.every e ~period:1.0 ~start:nan ignore ());
  let fired = ref 0 in
  Engine.schedule_at e ~at:1.0 (fun () -> incr fired);
  Engine.schedule_at e ~at:2.0 (fun () -> incr fired);
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "later events fire" 2 !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check (float 1e-12)) "clock at limit" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  let stop = Engine.every e ~period:1.0 (fun () -> incr count) in
  Engine.schedule e ~delay:5.5 (fun () -> stop ());
  Engine.run e;
  Alcotest.(check int) "five ticks then stopped" 5 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "final time" 2.0 (Engine.now e)

let test_engine_processed () =
  let e = Engine.create () in
  for _ = 1 to 3 do
    Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  Engine.run e;
  Alcotest.(check int) "processed" 3 (Engine.processed e)

let test_engine_fresh_flow_ids () =
  let e = Engine.create () in
  let a = Engine.fresh_flow_id e in
  let b = Engine.fresh_flow_id e in
  Alcotest.(check (list int)) "from 1, monotone" [ 1; 2 ] [ a; b ];
  Alcotest.(check int) "per engine" 1 (Engine.fresh_flow_id (Engine.create ()));
  Alcotest.(check int) "apart from user ids" 0 (Engine.fresh_user_id e)

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  Engine.schedule e ~delay:1.0 (fun () -> ());
  Alcotest.(check bool) "step runs" true (Engine.step e);
  Alcotest.(check int) "pending drained" 0 (Engine.pending e)

let test_engine_fire () =
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.handler e (fun () -> log := Engine.now e :: !log) in
  Engine.fire e ~delay:2.0 h;
  Engine.fire e ~delay:1.0 h;
  Engine.schedule e ~delay:1.0 (fun () -> log := -1.0 :: !log);
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "time order, FIFO at ties" [ 1.0; -1.0; 2.0 ]
    (List.rev !log);
  Alcotest.(check int) "processed" 3 (Engine.processed e);
  let raises d =
    match Engine.fire e ~delay:d h with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative delay raises" true (raises (-1.0));
  Alcotest.(check bool) "NaN delay raises" true (raises nan);
  (* [fire_at] takes an absolute time and orders like [schedule_at] *)
  log := [];
  Engine.fire_at e ~at:3.0 h;
  Engine.schedule_at e ~at:3.0 (fun () -> log := -1.0 :: !log);
  Engine.fire_at e ~at:2.5 h;
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "fire_at: time order, FIFO at ties" [ 2.5; 3.0; -1.0 ]
    (List.rev !log);
  let raises_at at =
    match Engine.fire_at e ~at h with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "fire_at in the past raises" true (raises_at 1.0);
  Alcotest.(check bool) "fire_at NaN raises" true (raises_at nan)

(* Firing a registered handler allocates nothing once the queue has
   grown: the minor words it takes equal those of an empty call, which
   are Gc.minor_words' own boxed result. *)
let test_engine_fire_allocates_nothing () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.handler e (fun () -> incr count) in
  for _ = 1 to 1024 do Engine.fire e ~delay:1.0 h done;
  Engine.run e;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words ignore in
  let fired = words (fun () -> for _ = 1 to 1000 do Engine.fire e ~delay:1.0 h done) in
  Alcotest.(check (float 0.0)) "minor words" empty fired;
  Engine.run e;
  Alcotest.(check int) "fired" 2024 !count

(* The engine against a list model sorted by (at, seq).  Times come
   from a small set so ties are common; events may schedule
   from inside a running event, fire one of three registered handlers
   (the third fires the first from inside itself), and the run is split
   by [~until].  After each operation the fired (id, now) log, [now],
   [processed] and [pending] must agree; a handler [h] logs the id
   [-(h+1)].  After the final drain no fired closure may still be
   reachable from the engine. *)

type op =
  | Sched of float * float option  (* delay, and a child's delay *)
  | Sched_at of float
  | Fire of int * float  (* handler, delay *)
  | Step
  | Run_until of float  (* now + this *)
  | Run

let pp_op = function
  | Sched (d, c) ->
    Printf.sprintf "Sched %g%s" d
      (match c with Some c -> Printf.sprintf " child %g" c | None -> "")
  | Sched_at a -> Printf.sprintf "Sched_at %g" a
  | Fire (h, d) -> Printf.sprintf "Fire %d %g" h d
  | Step -> "Step"
  | Run_until x -> Printf.sprintf "Run_until +%g" x
  | Run -> "Run"

let gen_op =
  let open QCheck.Gen in
  let time = oneofl [ 0.0; 0.5; 1.0; 1.0; 2.0 ] in
  frequency
    [ (5, map2 (fun d c -> Sched (d, c)) time (opt time));
      (2, map (fun a -> Sched_at a) (oneofl [ 0.0; 1.0; 1.5; 2.0; 3.0; 4.0 ]));
      (3, map2 (fun h d -> Fire (h, d)) (int_bound 2) time);
      (2, return Step);
      (2, map (fun x -> Run_until x) (oneofl [ 0.0; 0.5; 1.0; 1.5 ]));
      (1, return Run) ]

type mev = { m_at : float; m_seq : int; m_id : int; m_child : float option }

type model = { mutable m_now : float; mutable m_seq : int; mutable m_q : mev list;
               mutable m_processed : int; mutable m_log : (int * float) list;
               mutable m_closures : int (* one-off closures scheduled *) }

let m_push m ~at ~id child =
  let ev = { m_at = at; m_seq = m.m_seq; m_id = id; m_child = child } in
  m.m_seq <- m.m_seq + 1;
  let before x = x.m_at < at || (x.m_at = at && x.m_seq < ev.m_seq) in
  let rec ins = function x :: r when before x -> x :: ins r | l -> ev :: l in
  m.m_q <- ins m.m_q

let m_insert m ~at child =
  m_push m ~at ~id:m.m_closures child;
  m.m_closures <- m.m_closures + 1

(* A fired handler's event.  Handler 2 fires handler 0 half a second
   after it runs. *)
let m_fire m ~at h = m_push m ~at ~id:(-(h + 1)) (if h = 2 then Some 0.5 else None)

let m_step m =
  match m.m_q with
  | [] -> false
  | ev :: rest ->
    m.m_q <- rest;
    m.m_now <- ev.m_at;
    m.m_processed <- m.m_processed + 1;
    m.m_log <- (ev.m_id, m.m_now) :: m.m_log;
    Option.iter
      (fun d ->
        if ev.m_id >= 0 then m_insert m ~at:(m.m_now +. d) None
        else m_fire m ~at:(m.m_now +. d) 0)
      ev.m_child;
    true

let m_run_until m limit =
  while (match m.m_q with ev :: _ -> ev.m_at <= limit | [] -> false) do
    ignore (m_step m)
  done;
  if limit > m.m_now then m.m_now <- limit

let m_run m = while m_step m do () done

let prop_engine_model =
  QCheck.Test.make ~name:"engine agrees with a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let e = Engine.create () in
      let m = { m_now = 0.0; m_seq = 0; m_q = []; m_processed = 0; m_log = [];
                m_closures = 0 } in
      let log = ref [] and closures = ref 0 and tokens = ref [] in
      let logs h () = log := (-(h + 1), Engine.now e) :: !log in
      let h0 = Engine.handler e (logs 0) in
      let h1 = Engine.handler e (logs 1) in
      let h2 =
        Engine.handler e (fun () ->
            logs 2 ();
            Engine.fire e ~delay:0.5 h0)
      in
      (* Each closure holds the only reference to a fresh token. *)
      let rec add ~at child =
        let id = !closures in
        let tok = ref id in
        let w = Weak.create 1 in
        Weak.set w 0 (Some tok);
        tokens := w :: !tokens;
        let run () =
          log := (!tok, Engine.now e) :: !log;
          Option.iter (fun d -> add ~at:(Engine.now e +. d) None) child
        in
        Engine.schedule_at e ~at run;
        incr closures
      in
      let agree () =
        !log = m.m_log && Engine.now e = m.m_now
        && Engine.processed e = m.m_processed
        && Engine.pending e = List.length m.m_q
      in
      let apply = function
        | Sched (d, c) ->
          add ~at:(Engine.now e +. d) c;
          m_insert m ~at:(m.m_now +. d) c
        | Sched_at a when a < m.m_now -> (
          match add ~at:a None with
          | () -> QCheck.Test.fail_report "past time accepted"
          | exception Invalid_argument _ -> ())
        | Sched_at a ->
          add ~at:a None;
          m_insert m ~at:a None
        | Fire (h, d) ->
          Engine.fire e ~delay:d (match h with 0 -> h0 | 1 -> h1 | _ -> h2);
          m_fire m ~at:(m.m_now +. d) h
        | Step ->
          if Engine.step e <> m_step m then QCheck.Test.fail_report "step result"
        | Run_until x ->
          let limit = Engine.now e +. x in
          Engine.run ~until:limit e;
          m_run_until m limit
        | Run ->
          Engine.run e;
          m_run m
      in
      List.iter
        (fun op ->
          apply op;
          if not (agree ()) then QCheck.Test.fail_reportf "disagree after %s" (pp_op op))
        ops;
      Engine.run e;
      m_run m;
      Gc.full_major ();
      agree () && List.for_all (fun w -> not (Weak.check w 0)) !tokens)

(* ------------------------------------------------------------------ *)
(* Ring *)

(* The ring against a list, through enough pushes to wrap and grow. *)
type ring_op = R_push | R_pop | R_get of int | R_truncate of int

let pp_ring_op = function
  | R_push -> "Push"
  | R_pop -> "Pop"
  | R_get i -> Printf.sprintf "Get %d" i
  | R_truncate n -> Printf.sprintf "Truncate %d" n

let prop_ring_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 80)
        (frequency
           [ (5, return R_push); (3, return R_pop); (2, map (fun i -> R_get i) (int_bound 12));
             (1, map (fun n -> R_truncate n) (int_bound 12)) ]))
  in
  QCheck.Test.make ~name:"ring agrees with a list model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_ring_op ops)) gen)
    (fun ops ->
      let r = Ring.create (-1) and model = ref [] and next = ref 0 in
      let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
      List.for_all
        (fun op ->
          let n = List.length !model in
          let ok =
            match op with
            | R_push ->
              Ring.push r !next;
              model := !model @ [ !next ];
              incr next;
              true
            | R_pop when n = 0 -> invalid (fun () -> Ring.pop r)
            | R_pop ->
              let x = Ring.pop r in
              let expected = List.hd !model in
              model := List.tl !model;
              x = expected
            | R_get i when i >= n -> invalid (fun () -> Ring.get r i)
            | R_get i -> Ring.get r i = List.nth !model i
            | R_truncate k when k > n -> invalid (fun () -> Ring.truncate r k)
            | R_truncate k ->
              Ring.truncate r k;
              model := List.filteri (fun i _ -> i < k) !model;
              true
          in
          ok && Ring.length r = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Link *)

let mk_pkt ?(payload = 986) () =
  (* payload chosen so total size = 1040 B => 1040*8 bits *)
  Packet.udp_data ~payload_len:payload ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 10 0 0 1)
    ~ip_dst:(Ipv4_addr.make 10 0 0 2) ~src_port:1 ~dst_port:2 ()

let test_link_delivery_time () =
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:1e6 ~latency:0.01 ~queue_capacity:10 in
  let arrival = ref nan in
  Link.connect link (fun _ -> arrival := Engine.now e);
  let pkt = mk_pkt () in
  let expected = (float_of_int (Packet.size pkt * 8) /. 1e6) +. 0.01 in
  Link.send link pkt;
  Engine.run e;
  Alcotest.(check (float 1e-9)) "tx + propagation" expected !arrival;
  Alcotest.(check int) "delivered" 1 (Link.delivered link);
  Alcotest.(check int) "bytes" (Packet.size pkt) (Link.bytes_delivered link)

let test_link_serialization () =
  (* two packets sent together: second arrives one transmission later *)
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:1e6 ~latency:0.0 ~queue_capacity:10 in
  let times = ref [] in
  Link.connect link (fun _ -> times := Engine.now e :: !times);
  let pkt = mk_pkt () in
  let tx = float_of_int (Packet.size pkt * 8) /. 1e6 in
  Link.send link pkt;
  Link.send link (mk_pkt ());
  Engine.run e;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-9)) "first" tx t1;
    Alcotest.(check (float 1e-9)) "second" (2.0 *. tx) t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_link_queue_overflow () =
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:1e6 ~latency:0.0 ~queue_capacity:2 in
  Link.connect link (fun _ -> ());
  (* 1 in transmission + 2 queued + 2 dropped *)
  for _ = 1 to 5 do
    Link.send link (mk_pkt ())
  done;
  Engine.run e;
  Alcotest.(check int) "delivered" 3 (Link.delivered link);
  Alcotest.(check int) "dropped" 2 (Link.dropped link)

(* The link's former implementation, a [Queue] and two fresh closures
   per packet, kept as the reference model for the ring-based one. *)
module Link_ref = struct
  type stats = { mutable delivered : int; mutable dropped : int; mutable bytes : int }

  type t = {
    engine : Engine.t;
    bandwidth_bps : float;
    latency : float;
    queue_capacity : int;
    queue : Packet.t Queue.t;
    mutable busy : bool;
    mutable up : bool;
    mutable sink : Packet.t -> unit;
    stats : stats;
  }

  let create engine ~bandwidth_bps ~latency ~queue_capacity =
    { engine; bandwidth_bps; latency; queue_capacity; queue = Queue.create (); busy = false;
      up = true; sink = (fun _ -> ()); stats = { delivered = 0; dropped = 0; bytes = 0 } }

  let connect t sink = t.sink <- sink

  let transmission_time t pkt = float_of_int (Packet.size pkt * 8) /. t.bandwidth_bps

  let rec start_transmission t =
    match Queue.take_opt t.queue with
    | None -> t.busy <- false
    | Some pkt ->
      t.busy <- true;
      Engine.schedule t.engine ~delay:(transmission_time t pkt) (fun () ->
          t.stats.delivered <- t.stats.delivered + 1;
          t.stats.bytes <- t.stats.bytes + Packet.size pkt;
          Engine.schedule t.engine ~delay:t.latency (fun () -> t.sink pkt);
          start_transmission t)

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

  let set_up t up =
    t.up <- up;
    if not up then Queue.clear t.queue

  let delivered t = t.stats.delivered
  let dropped t = t.stats.dropped
  let bytes_delivered t = t.stats.bytes
  let queue_length t = Queue.length t.queue
end

let test_link_validation () =
  let e = Engine.create () in
  Alcotest.(check bool) "zero bandwidth rejected" true
    (try
       ignore (Link.create e ~bandwidth_bps:0.0 ~latency:0.0 ~queue_capacity:1);
       false
     with Invalid_argument _ -> true)

(* Taking a link down drops its waiting packets only: the one in
   service still finishes, arrives and counts as delivered. *)
let test_link_down_mid_transmission () =
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:1e6 ~latency:0.01 ~queue_capacity:10 in
  let arrived = ref [] in
  Link.connect link (fun p -> arrived := p.Packet.meta.flow_id :: !arrived);
  let pkt id = { (mk_pkt ()) with meta = Packet.fresh_meta ~flow_id:id ~created:0.0 () } in
  List.iter (fun id -> Link.send link (pkt id)) [ 1; 2; 3 ];
  Engine.run ~until:1e-4 e;
  Link.set_up link false;
  Alcotest.(check int) "queue emptied" 0 (Link.queue_length link);
  Link.send link (pkt 4);
  Engine.run e;
  Alcotest.(check (list int)) "only the packet in service arrives" [ 1 ] !arrived;
  Alcotest.(check int) "delivered" 1 (Link.delivered link);
  Alcotest.(check int) "queued packets are not drops" 0 (Link.dropped link)

(* The ring-based link against [Link_ref]: random sends of a few
   sizes, queue capacities, administrative flaps and partial runs.
   After every operation both must have delivered the same packets at
   the same times, and agree on every counter. *)

type link_op =
  | L_send of int  (* payload bytes *)
  | L_up of bool
  | L_advance of float  (* run until now + this *)

let pp_link_op = function
  | L_send n -> Printf.sprintf "Send %d" n
  | L_up b -> Printf.sprintf "Up %b" b
  | L_advance d -> Printf.sprintf "Advance %g" d

let gen_link_case =
  let open QCheck.Gen in
  let op =
    frequency
      [ (6, map (fun n -> L_send n) (oneofl [ 0; 100; 986; 1460 ]));
        (1, map (fun b -> L_up b) bool);
        (3, map (fun d -> L_advance d) (oneofl [ 0.0; 1e-4; 1e-3; 8.32e-3; 5e-2 ])) ]
  in
  triple (int_bound 4) (oneofl [ 0.0; 1e-3; 1.04e-3 ]) (list_size (int_range 1 60) op)

let prop_link_matches_reference =
  QCheck.Test.make ~name:"link agrees with its queue-and-closure reference" ~count:300
    (QCheck.make
       ~print:(fun (cap, lat, ops) ->
         Printf.sprintf "capacity %d latency %g: %s" cap lat
           (String.concat "; " (List.map pp_link_op ops)))
       gen_link_case)
    (fun (queue_capacity, latency, ops) ->
      let e = Engine.create () and e_ref = Engine.create () in
      let link = Link.create e ~bandwidth_bps:1e6 ~latency ~queue_capacity in
      let link_ref = Link_ref.create e_ref ~bandwidth_bps:1e6 ~latency ~queue_capacity in
      let log = ref [] and log_ref = ref [] in
      Link.connect link (fun p -> log := (Engine.now e, p) :: !log);
      Link_ref.connect link_ref (fun p -> log_ref := (Engine.now e_ref, p) :: !log_ref);
      let sent = ref 0 in
      let agree () =
        List.length !log = List.length !log_ref
        && List.for_all2 (fun (t, p) (t', p') -> t = t' && p == p') !log !log_ref
        && Link.delivered link = Link_ref.delivered link_ref
        && Link.dropped link = Link_ref.dropped link_ref
        && Link.bytes_delivered link = Link_ref.bytes_delivered link_ref
        && Link.queue_length link = Link_ref.queue_length link_ref
      in
      let apply = function
        | L_send payload ->
          incr sent;
          let pkt = { (mk_pkt ~payload ()) with
                      meta = Packet.fresh_meta ~flow_id:!sent ~created:0.0 () } in
          Link.send link pkt;
          Link_ref.send link_ref pkt
        | L_up up ->
          Link.set_up link up;
          Link_ref.set_up link_ref up
        | L_advance d ->
          Engine.run ~until:(Engine.now e +. d) e;
          Engine.run ~until:(Engine.now e_ref +. d) e_ref
      in
      List.iter
        (fun op ->
          apply op;
          if not (agree ()) then QCheck.Test.fail_reportf "disagree after %s" (pp_link_op op))
        ops;
      Engine.run e;
      Engine.run e_ref;
      agree ())

(* The link keeps no packet once it has left: after a full major
   collection every packet the sink dropped, and every one the queue
   lost to overflow or a flap, is gone. *)
let test_link_releases_packets () =
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:1e6 ~latency:0.01 ~queue_capacity:3 in
  Link.connect link ignore;
  let weak = Weak.create 30 in
  let send i =
    let pkt = { (mk_pkt ()) with meta = Packet.fresh_meta ~flow_id:i ~created:0.0 () } in
    Weak.set weak i (Some pkt);
    Link.send link pkt
  in
  for i = 0 to 19 do send i done;
  Engine.run ~until:0.02 e;
  for i = 20 to 29 do send i done;
  (* the flap drops the waiting 3, 20 and 21; nothing refills their slots *)
  Link.set_up link false;
  Link.set_up link true;
  Engine.run e;
  Gc.full_major ();
  let kept = List.filter (fun i -> Weak.check weak i) (List.init 30 Fun.id) in
  Alcotest.(check (list int)) "no packet kept" [] kept;
  (* the link, and so its ring, stayed reachable through the check *)
  Alcotest.(check int) "delivered" 3 (Link.delivered link)

(* Each send reaches its own link after the stage's delay, in order. *)
let test_egress () =
  let e = Engine.create () in
  let log = ref [] in
  let link name =
    let l = Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:10 in
    Link.connect l (fun p -> log := (name, p.Packet.meta.flow_id, Engine.now e) :: !log);
    Some l
  in
  let a = link "a" and b = link "b" in
  let eg = Egress.create e ~delay:1.0 in
  let pkt id = { (mk_pkt ()) with meta = Packet.fresh_meta ~flow_id:id ~created:0.0 () } in
  Egress.send eg a (pkt 1);
  Egress.send eg b (pkt 2);
  Engine.run ~until:0.5 e;
  Egress.send eg a (pkt 3);
  Engine.run e;
  let tx = float_of_int (Packet.size (pkt 0) * 8) /. 1e12 in
  Alcotest.(check (list (triple string int (float 1e-12)))) "order, links and times"
    [ ("a", 1, 1.0 +. tx); ("b", 2, 1.0 +. tx); ("a", 3, 1.5 +. tx) ] (List.rev !log)

let () =
  Alcotest.run "scotch_sim"
    [ ( "engine",
        [ Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO at ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "past scheduling raises" `Quick test_engine_past_raises;
          Alcotest.test_case "NaN time raises" `Quick test_engine_nan_raises;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "every/stop" `Quick test_engine_every;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "processed count" `Quick test_engine_processed;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "fresh flow ids" `Quick test_engine_fresh_flow_ids;
          Alcotest.test_case "fire a handler" `Quick test_engine_fire;
          Alcotest.test_case "fire allocates nothing" `Quick test_engine_fire_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_engine_model ] );
      ("ring", [ QCheck_alcotest.to_alcotest prop_ring_model ]);
      ( "link",
        [ Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "validation" `Quick test_link_validation;
          Alcotest.test_case "down mid-transmission" `Quick test_link_down_mid_transmission;
          Alcotest.test_case "releases packets" `Quick test_link_releases_packets;
          QCheck_alcotest.to_alcotest prop_link_matches_reference ] );
      ("egress", [ Alcotest.test_case "in order after the delay" `Quick test_egress ]) ]
