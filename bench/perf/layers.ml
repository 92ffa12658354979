(* The traced pass, measured from outside the program: a read-only probe
   for queue depths and peaks during the run, then replays of each
   layer's public entry points on the end-of-run state, timed per
   operation.  Multiplying a replay's ns/op by the run's op count gives
   that layer's share of the run's wall time. *)

open Scotch_switch
open Scotch_openflow
open Scotch_packet
module E = Scotch_sim.Engine
module C = Scotch_controller.Controller
module W = Workload

let clock = Unix.gettimeofday

type peaks = {
  mutable ticks : int;
  mutable pending : int;
  mutable link_queue : int;
  mutable pin_queue : int;
  mutable msg_queue : int;
  mutable ctrl_pending : int;
  mutable ingress_backlog : int;
}

let probe_period = 0.01

(* Read depths every 10 ms of simulated time.  The probe draws no
   randomness and mutates nothing, so the run's counters are unchanged;
   its own ticks are subtracted from the event count. *)
let install_probe (net : W.net) =
  let p =
    { ticks = 0; pending = 0; link_queue = 0; pin_queue = 0; msg_queue = 0; ctrl_pending = 0;
      ingress_backlog = 0 }
  in
  let links = W.links net in
  let ofas = List.map Switch.ofa (W.switches net) in
  let scheds =
    match net.W.app with
    | None -> []
    | Some app -> List.filter_map (W.Scotch.sched_of app) (W.Scotch.managed_dpids app)
  in
  let (_ : unit -> unit) =
    E.every net.W.engine ~period:probe_period (fun () ->
        p.ticks <- p.ticks + 1;
        p.pending <- max p.pending (E.pending net.W.engine);
        List.iter (fun l -> p.link_queue <- max p.link_queue (Scotch_sim.Link.queue_length l)) links;
        List.iter
          (fun o ->
            let msgs, pins = Ofa.queue_depths o in
            p.msg_queue <- max p.msg_queue msgs;
            p.pin_queue <- max p.pin_queue pins)
          ofas;
        p.ctrl_pending <- max p.ctrl_pending (C.pending_requests net.W.ctrl);
        p.ingress_backlog <-
          max p.ingress_backlog
            (List.fold_left (fun acc s -> acc + Scotch_core.Sched.ingress_backlog s) 0 scheds))
  in
  p

(* Repeat [batch] until [min_s] seconds have been measured; [batch]
   returns (seconds it measured, operations it did). *)
let ns_per_op ?(min_s = 0.05) batch =
  let secs = ref 0.0 and ops = ref 0 and empty = ref false in
  while (not !empty) && (!secs < min_s || !ops = 0) do
    let s, n = batch () in
    if n = 0 then empty := true;
    secs := !secs +. s;
    ops := !ops + n
  done;
  if !ops = 0 then 0.0 else !secs *. 1e9 /. float_of_int !ops

let timed f =
  let t0 = clock () in
  let r = f () in
  (clock () -. t0, r)

(* Schedule + step of no-op events on a fresh engine pre-filled to the
   run's pending peak: the heap cost every event pays. *)
let engine_ns ~prefill =
  let rng = Scotch_util.Rng.create 7 in
  let delays = Array.init 4096 (fun _ -> Scotch_util.Rng.float rng 1.0) in
  let e = E.create () in
  for i = 0 to prefill - 1 do
    ignore (E.schedule e ~delay:delays.(i land 4095) ignore)
  done;
  let k = ref 0 in
  ns_per_op (fun () ->
      let n = 100_000 in
      let s, () =
        timed (fun () ->
            for _ = 1 to n do
              incr k;
              ignore (E.schedule e ~delay:delays.(!k land 4095) ignore);
              ignore (E.step e)
            done)
      in
      (s, n))

let rules_of t =
  let l = ref [] in
  Flow_table.iter_rules t (fun r -> l := r :: !l);
  List.rev !l

let largest_table net =
  List.fold_left
    (fun ((_, best) as acc) t ->
      let n = List.length (rules_of t) in
      if n > best then (Some t, n) else acc)
    (None, 0)
    (List.concat_map (fun s -> Array.to_list (Switch.tables s)) (W.switches net))
  |> fst

let fill t ~now rules =
  List.iter
    (fun (r : Flow_table.rule) ->
      ignore
        (Flow_table.insert t ~now ~priority:r.Flow_table.priority ~match_:r.Flow_table.match_
           ~instructions:r.Flow_table.instructions ~idle_timeout:r.Flow_table.idle_timeout
           ~hard_timeout:r.Flow_table.hard_timeout ~cookie:r.Flow_table.cookie))
    rules

(* A packet the rule's match selects (absent fields get fixed values),
   or, with [miss], one from a range no workload uses. *)
let packet_for ?(miss = false) i (m : Of_match.t) =
  let addr field default =
    match field with
    | Some { Of_match.value; _ } when not miss -> Ipv4_addr.of_int value
    | _ -> Ipv4_addr.of_int (Ipv4_addr.to_int default + i)
  in
  let ip_src = addr m.Of_match.ip_src (Ipv4_addr.make 198 18 0 0) in
  let ip_dst = addr m.Of_match.ip_dst (Ipv4_addr.make 198 19 0 0) in
  let port field default = if miss then default else Option.value field ~default in
  let src_port = port m.Of_match.l4_src 1024 and dst_port = port m.Of_match.l4_dst 80 in
  let src_mac = Mac.of_host_id 1 and dst_mac = Mac.of_host_id 2 in
  let pkt =
    if (not miss) && m.Of_match.ip_proto = Some Headers.Ipv4.proto_udp then
      Packet.udp_data ~payload_len:64 ~flow_id:0 ~created:0.0 ~src_mac ~dst_mac ~ip_src ~ip_dst
        ~src_port ~dst_port ()
    else
      Packet.tcp_syn ~flow_id:0 ~created:0.0 ~src_mac ~dst_mac ~ip_src ~ip_dst ~src_port ~dst_port
        ()
  in
  Of_match.context ?tunnel_id:(if miss then None else m.Of_match.tunnel_id)
    ~in_port:(if miss then 1 else Option.value m.Of_match.in_port ~default:1)
    pkt

type table_costs = {
  lookup_ns : float;
  insert_ns : float;
  sweep_ns_per_rule : float;
  stats_ns_per_rule : float;
  encode_ns_per_record : float;
}

let no_table =
  { lookup_ns = 0.0; insert_ns = 0.0; sweep_ns_per_rule = 0.0; stats_ns_per_rule = 0.0;
    encode_ns_per_record = 0.0 }

(* Replays on the largest table: [peek] with its own rules' packets as
   hits plus as many fresh keys as misses; re-insertion into a fresh
   table; a sweep past every timeout; a stats read; the wire encoding
   of that stats reply. *)
let table_costs ~span net =
  match largest_table net with
  | None -> no_table
  | Some table ->
    let now = E.now net.W.engine in
    let rules = rules_of table in
    let n = List.length rules in
    let fresh () = Flow_table.create ~table_id:(Flow_table.table_id table) () in
    let replay name f = Spans.with_span ~parent:span ~cat:"replay" name (fun _ -> f ()) in
    let lookup_ns =
      replay "replay flow_table.peek" (fun () ->
          let hits = List.filteri (fun i _ -> i < 8192) rules in
          let ctxs =
            Array.of_list
              (List.mapi (fun i (r : Flow_table.rule) -> packet_for i r.Flow_table.match_) hits
              @ List.mapi (fun i _ -> packet_for ~miss:true i Of_match.wildcard) hits)
          in
          ns_per_op (fun () ->
              let peek_all () = Array.iter (fun c -> ignore (Flow_table.peek table ~now c)) ctxs in
              let s, () = timed peek_all in
              (s, Array.length ctxs)))
    in
    let insert_ns =
      replay "replay flow_table.insert" (fun () ->
          ns_per_op (fun () ->
              let t = fresh () in
              let s, () = timed (fun () -> fill t ~now rules) in
              (s, n)))
    in
    let horizon =
      List.fold_left
        (fun acc (r : Flow_table.rule) ->
          Float.max acc (Float.max r.Flow_table.idle_timeout r.Flow_table.hard_timeout))
        0.0 rules
    in
    let sweep_ns_per_rule =
      replay "replay flow_table.sweep" (fun () ->
          ns_per_op (fun () ->
              let t = fresh () in
              fill t ~now rules;
              let s, reaped = timed (fun () -> Flow_table.sweep t ~now:(now +. horizon +. 1.0)) in
              (s, reaped)))
    in
    let copy = fresh () in
    fill copy ~now rules;
    let stats = Flow_table.stats copy ~now in
    let records = List.length stats in
    let stats_ns_per_rule =
      replay "replay flow_table.stats" (fun () ->
          ns_per_op (fun () ->
              let s, _ = timed (fun () -> Flow_table.stats copy ~now) in
              (s, records)))
    in
    let encode_ns_per_record =
      replay "replay of_wire.encode" (fun () ->
          let msg = Of_msg.make ~xid:0 (Of_msg.Flow_stats_reply stats) in
          ns_per_op (fun () ->
              let s, _ = timed (fun () -> Of_wire.encode msg) in
              (s, records)))
    in
    { lookup_ns; insert_ns; sweep_ns_per_rule; stats_ns_per_rule; encode_ns_per_record }

let packet_in_replays = 20_000

(* Fresh spoofed Packet-Ins straight into the Scotch app's handler at
   the edge.  This mutates the end state (Flow Info DB, scheduler
   queues), so it runs last. *)
let packet_in_ns (net : W.net) =
  match (net.W.app, net.W.pin_entry) with
  | Some app, Some (dpid, in_port, dst) -> (
    match C.switch net.W.ctrl dpid with
    | None -> 0.0
    | Some sw ->
      let handler = (W.Scotch.app app).C.packet_in in
      let base = Ipv4_addr.to_int (Ipv4_addr.make 198 18 0 0) in
      let pins =
        Array.init packet_in_replays (fun i ->
            Of_msg.Packet_in.make ~reason:Of_types.Packet_in_reason.No_match ~in_port
              (Packet.tcp_syn ~flow_id:0 ~created:(E.now net.W.engine) ~src_mac:(Mac.of_host_id 99)
                 ~dst_mac:(Scotch_topo.Host.mac dst) ~ip_src:(Ipv4_addr.of_int (base + i))
                 ~ip_dst:(Scotch_topo.Host.ip dst) ~src_port:(1024 + (i mod 60000)) ~dst_port:80 ()))
      in
      let s, () = timed (fun () -> Array.iter (fun pi -> ignore (handler sw pi)) pins) in
      s *. 1e9 /. float_of_int packet_in_replays)
  | _ -> 0.0
