(* Tests for Scotch_sim: the discrete-event engine and links. *)

open Scotch_sim
open Scotch_packet

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := "c" :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~delay:1.5 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_now_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule e ~delay:3.25 (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-12)) "now at event" 3.25 !seen

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  Engine.run e;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       ignore (Engine.schedule_at e ~at:0.5 (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay raises" true
    (try
       ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ()));
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
  raises "NaN delay" (fun () -> ignore (Engine.schedule e ~delay:nan ignore));
  raises "NaN time" (fun () -> ignore (Engine.schedule_at e ~at:nan ignore));
  (* [every] returns its stop function; calling it at once keeps the
     result a unit *)
  raises "NaN period" (fun () -> Engine.every e ~period:nan ignore ());
  raises "NaN start" (fun () -> Engine.every e ~period:1.0 ~start:nan ignore ());
  let fired = ref 0 in
  ignore (Engine.schedule_at e ~at:1.0 (fun () -> incr fired));
  ignore (Engine.schedule_at e ~at:2.0 (fun () -> incr fired));
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "later events fire" 2 !fired

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_cancel_twice () =
  let e = Engine.create () in
  let log = ref [] in
  let ev name delay = Engine.schedule e ~delay (fun () -> log := name :: !log) in
  ignore (ev "a" 1.0);
  let b = ev "b" 2.0 in
  ignore (ev "c" 3.0);
  Engine.cancel e b;
  Engine.cancel e b;
  Alcotest.(check int) "cancelled still pending" 3 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "others fire" [ "a"; "c" ] (List.rev !log);
  Alcotest.(check int) "processed" 2 (Engine.processed e);
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check (float 1e-12)) "now at the last event" 3.0 (Engine.now e)

let test_engine_cancel_fired () =
  let e = Engine.create () in
  let log = ref [] in
  let ev name delay = Engine.schedule e ~delay (fun () -> log := name :: !log) in
  let a = ev "a" 1.0 in
  ignore (ev "b" 2.0);
  Alcotest.(check bool) "a runs" true (Engine.step e);
  Engine.cancel e a;
  Engine.cancel e a;
  Alcotest.(check int) "pending unchanged" 1 (Engine.pending e);
  Alcotest.(check int) "processed unchanged" 1 (Engine.processed e);
  Engine.run e;
  ignore (ev "c" 0.0);
  Engine.run e;
  Alcotest.(check (list string)) "later events fire" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "processed" 3 (Engine.processed e)

let test_engine_step_cancelled_root () =
  let e = Engine.create () in
  let fired = ref [] in
  let a = Engine.schedule e ~delay:1.0 (fun () -> fired := "a" :: !fired) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := "b" :: !fired));
  Engine.cancel e a;
  Alcotest.(check bool) "step pops the cancelled root" true (Engine.step e);
  Alcotest.(check (float 1e-12)) "now advanced to it" 1.0 (Engine.now e);
  Alcotest.(check int) "not processed" 0 (Engine.processed e);
  Alcotest.(check int) "one left" 1 (Engine.pending e);
  Alcotest.(check (list string)) "nothing ran" [] !fired;
  Alcotest.(check bool) "next step" true (Engine.step e);
  Alcotest.(check (list string)) "b ran" [ "b" ] !fired;
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
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
  ignore (Engine.schedule e ~delay:5.5 (fun () -> stop ()));
  Engine.run e;
  Alcotest.(check int) "five ticks then stopped" 5 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "final time" 2.0 (Engine.now e)

let test_engine_processed () =
  let e = Engine.create () in
  for _ = 1 to 3 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> ()))
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
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "step runs" true (Engine.step e);
  Alcotest.(check int) "pending drained" 0 (Engine.pending e)

(* The engine against a list model sorted by (at, seq).  Times come
   from a small set so ties are common; events may cancel, schedule
   from inside a running event, and the run is split by [~until].
   After each operation the fired (id, now) log, [now], [processed] and
   [pending] must agree; after the final drain no fired closure may
   still be reachable from the engine. *)

type op =
  | Sched of float * float option  (* delay, and a child's delay *)
  | Sched_at of float
  | Cancel of int  (* the k-th handle issued, modulo their number *)
  | Step
  | Run_until of float  (* now + this *)
  | Run

let pp_op = function
  | Sched (d, c) ->
    Printf.sprintf "Sched %g%s" d
      (match c with Some c -> Printf.sprintf " child %g" c | None -> "")
  | Sched_at a -> Printf.sprintf "Sched_at %g" a
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"
  | Run_until x -> Printf.sprintf "Run_until +%g" x
  | Run -> "Run"

let gen_op =
  let open QCheck.Gen in
  let time = oneofl [ 0.0; 0.5; 1.0; 1.0; 2.0 ] in
  frequency
    [ (5, map2 (fun d c -> Sched (d, c)) time (opt time));
      (2, map (fun a -> Sched_at a) (oneofl [ 0.0; 1.0; 1.5; 2.0; 3.0; 4.0 ]));
      (2, map (fun k -> Cancel k) (int_bound 20));
      (2, return Step);
      (2, map (fun x -> Run_until x) (oneofl [ 0.0; 0.5; 1.0; 1.5 ]));
      (1, return Run) ]

type mev = { m_at : float; m_seq : int; m_id : int; m_child : float option;
             mutable m_cancelled : bool }

type model = { mutable m_now : float; mutable m_seq : int; mutable m_q : mev list;
               mutable m_processed : int; mutable m_log : (int * float) list;
               mutable m_handles : mev list (* newest first *) }

let m_insert m ~at child =
  let ev = { m_at = at; m_seq = m.m_seq; m_id = List.length m.m_handles; m_child = child;
             m_cancelled = false } in
  m.m_seq <- m.m_seq + 1;
  m.m_handles <- ev :: m.m_handles;
  let before x = x.m_at < at || (x.m_at = at && x.m_seq < ev.m_seq) in
  let rec ins = function x :: r when before x -> x :: ins r | l -> ev :: l in
  m.m_q <- ins m.m_q

let m_step m =
  match m.m_q with
  | [] -> false
  | ev :: rest ->
    m.m_q <- rest;
    m.m_now <- ev.m_at;
    if not ev.m_cancelled then begin
      m.m_processed <- m.m_processed + 1;
      m.m_log <- (ev.m_id, m.m_now) :: m.m_log;
      Option.iter (fun d -> m_insert m ~at:(m.m_now +. d) None) ev.m_child
    end;
    true

let m_run_until m limit =
  while (match m.m_q with ev :: _ -> ev.m_at <= limit | [] -> false) do
    ignore (m_step m)
  done;
  if limit > m.m_now then m.m_now <- limit

let m_run m = while m_step m do () done

let nth_handle handles k =
  match handles with [] -> None | _ -> Some (List.nth handles (k mod List.length handles))

let prop_engine_model =
  QCheck.Test.make ~name:"engine agrees with a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let e = Engine.create () in
      let m = { m_now = 0.0; m_seq = 0; m_q = []; m_processed = 0; m_log = [];
                m_handles = [] } in
      let log = ref [] and handles = ref [] and tokens = ref [] in
      (* Each closure holds the only reference to a fresh token. *)
      let rec add ~at child =
        let id = List.length !handles in
        let tok = ref id in
        let w = Weak.create 1 in
        Weak.set w 0 (Some tok);
        tokens := w :: !tokens;
        let run () =
          log := (!tok, Engine.now e) :: !log;
          Option.iter (fun d -> add ~at:(Engine.now e +. d) None) child
        in
        handles := Engine.schedule_at e ~at run :: !handles
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
        | Cancel k ->
          Option.iter (Engine.cancel e) (nth_handle !handles k);
          Option.iter (fun ev -> ev.m_cancelled <- true) (nth_handle m.m_handles k)
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

let test_link_validation () =
  let e = Engine.create () in
  Alcotest.(check bool) "zero bandwidth rejected" true
    (try
       ignore (Link.create e ~bandwidth_bps:0.0 ~latency:0.0 ~queue_capacity:1);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "scotch_sim"
    [ ( "engine",
        [ Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO at ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "past scheduling raises" `Quick test_engine_past_raises;
          Alcotest.test_case "NaN time raises" `Quick test_engine_nan_raises;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel twice" `Quick test_engine_cancel_twice;
          Alcotest.test_case "cancel after firing" `Quick test_engine_cancel_fired;
          Alcotest.test_case "step on a cancelled root" `Quick test_engine_step_cancelled_root;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "every/stop" `Quick test_engine_every;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "processed count" `Quick test_engine_processed;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "fresh flow ids" `Quick test_engine_fresh_flow_ids;
          QCheck_alcotest.to_alcotest prop_engine_model ] );
      ( "link",
        [ Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "validation" `Quick test_link_validation ] ) ]
