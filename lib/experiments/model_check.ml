(** Model-check — the analytic OFA queueing model of
    {!Scotch_model.Ofa_model} against the discrete-event OFA of
    {!Scotch_switch.Ofa}, point by point.

    Rig: a standalone pool of OFAs (no controller, no data plane), each
    with housekeeping disabled and a deterministic service time [1/mu],
    fed independent Poisson new-flow arrivals at rate [rho *. mu].
    That is exactly the regime the model solves in closed form
    (M/D/1/K with K waiting slots), so simulated and predicted values
    must agree up to (a) the OFA's ±5 % mean-preserving service jitter
    and (b) Monte-Carlo noise — both well inside the 15 % acceptance
    band below saturation.

    Measured per offered load [rho], after a warmup:
    - time-average pin-queue length (sampled; the model's [queue_len]),
    - mean submit→Packet-In latency of surviving jobs (the model's
      [sojourn]),
    - fraction of submissions refused at the full queue (the model's
      [blocking]).

    Relative errors on queue and sojourn are gated below saturation
    (rho <= 0.95) — above it the queue pins at capacity and both sides
    trivially agree; blocking is compared absolutely because below
    saturation it is a cancellation-prone near-zero.  Same seed ⇒
    bit-identical point set (checked via {!outcome.digest}). *)

open Scotch_switch
open Scotch_packet
module Engine = Scotch_sim.Engine
module Rng = Scotch_util.Rng
module Of_msg = Scotch_openflow.Of_msg
module Of_types = Scotch_openflow.Of_types
module Model = Scotch_model.Ofa_model

(* Pool geometry and service law.  mu = 100 jobs/s keeps event counts
   small while leaving sojourns (>= 10 ms) far above float noise. *)
let pool_size = 3
let service_rate = 100.0
let queue_capacity = 50

let profile =
  { Profile.scotch_vswitch with
    Profile.packet_in_service = 1.0 /. service_rate;
    pin_queue_capacity = queue_capacity;
    housekeeping_period = 0.0 }

(* The rig never delivers controller messages, so every switch-side
   effect hook is unreachable; they only satisfy the record type. *)
let null_handler =
  { Ofa.install_flow = (fun _ -> Ok ());
    modify_group = (fun _ -> Ok ());
    execute_packet_out = ignore;
    flow_stats = (fun _ -> []);
    group_stats = (fun () -> []);
    telemetry = (fun () -> Of_msg.Telemetry.empty);
    on_flow_mod_rejected = ignore }

(** Offered loads swept; the sub-saturation prefix is what the error
    gates cover. *)
let offered_loads = [ 0.3; 0.5; 0.7; 0.8; 0.9; 1.1; 1.5; 2.0 ]

(** Queue/sojourn errors are gated only below this offered load. *)
let saturation_cutoff = 0.95

type point = {
  rho : float;             (** offered load per member, lambda/mu *)
  sim_queue : float;       (** time-average simulated pin-queue length *)
  model_queue : float;
  sim_sojourn : float;     (** mean submit→Packet-In latency, s *)
  model_sojourn : float;
  sim_blocking : float;    (** fraction of submissions refused *)
  model_blocking : float;
  queue_err : float;       (** relative, floored denominator *)
  sojourn_err : float;     (** relative *)
  blocking_err : float;    (** absolute *)
}

(* Relative error against the larger magnitude, floored so near-empty
   queues compare absolutely instead of amplifying Monte-Carlo noise. *)
let rel_err ~floor a b =
  Float.abs (a -. b) /. Float.max (Float.max (Float.abs a) (Float.abs b)) floor

(** One swept point: [pool_size] independent replicas of the same
    M/D/1/K station, averaged. *)
let run_point ~seed ~rho ~duration () =
  let engine = Engine.create ~seed () in
  let warmup = 0.1 *. duration in
  let lambda = rho *. service_rate in
  let submit_times : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  let next_flow = ref 0 in
  let sojourn_sum = ref 0.0 and sojourn_n = ref 0 in
  let queue_sum = ref 0.0 and queue_n = ref 0 in
  let ofas =
    List.init pool_size (fun i ->
        let ofa = Ofa.create ~dpid:(i + 1) engine ~profile ~handler:null_handler in
        Ofa.connect_controller ofa (fun msg ->
            match msg.Of_msg.payload with
            | Of_msg.Packet_in pin ->
              let fid = pin.Of_msg.Packet_in.packet.Packet.meta.Packet.flow_id in
              (match Hashtbl.find_opt submit_times fid with
              | Some t0 ->
                Hashtbl.remove submit_times fid;
                if t0 >= warmup then begin
                  sojourn_sum := !sojourn_sum +. (Engine.now engine -. t0);
                  incr sojourn_n
                end
              | None -> ())
            | _ -> ());
        ofa)
  in
  (* Independent Poisson arrival loop per member. *)
  List.iteri
    (fun i ofa ->
      let rng = Rng.split (Engine.rng engine) in
      let src = Mac.of_host_id (i + 1) and dst = Mac.of_host_id 1000 in
      let ip_src = Ipv4_addr.of_host_id (i + 1) and ip_dst = Ipv4_addr.of_host_id 1000 in
      let rec arrive () =
        let delay = Rng.exponential rng ~rate:lambda in
        ignore
          (Engine.schedule engine ~delay (fun () ->
               let now = Engine.now engine in
               if now <= duration then begin
                 let fid = !next_flow in
                 incr next_flow;
                 let packet =
                   Packet.tcp_syn ~flow_id:fid ~created:now ~src_mac:src ~dst_mac:dst ~ip_src
                     ~ip_dst ~src_port:(10_000 + (fid mod 50_000)) ~dst_port:80 ()
                 in
                 if now >= warmup then Hashtbl.replace submit_times fid now;
                 Ofa.submit_packet_in ofa
                   { Ofa.in_port = 1;
                     tunnel_id = None;
                     reason = Of_types.Packet_in_reason.No_match;
                     packet };
                 arrive ()
               end))
      in
      arrive ())
    ofas;
  (* Time-sample the pin-queue depth of every member past warmup. *)
  let (_stop_sampling : unit -> unit) =
    Engine.every engine ~period:0.02 ~start:warmup (fun () ->
        List.iter
          (fun ofa ->
            let _, pin = Ofa.queue_depths ofa in
            queue_sum := !queue_sum +. float_of_int pin;
            incr queue_n)
          ofas)
  in
  (* Counter snapshots at warmup bound the blocking measurement. *)
  let warm_submitted = ref 0 and warm_dropped = ref 0 in
  ignore
    (Engine.schedule_at engine ~at:warmup (fun () ->
         List.iter
           (fun ofa ->
             let c = Ofa.counters ofa in
             warm_submitted := !warm_submitted + c.Ofa.pin_submitted;
             warm_dropped := !warm_dropped + c.Ofa.pin_dropped)
           ofas));
  (* +1 s drain so in-flight sojourns past [duration] still resolve. *)
  Engine.run ~until:(duration +. 1.0) engine;
  let submitted = ref 0 and dropped = ref 0 in
  List.iter
    (fun ofa ->
      let c = Ofa.counters ofa in
      submitted := !submitted + c.Ofa.pin_submitted;
      dropped := !dropped + c.Ofa.pin_dropped)
    ofas;
  let offered = !submitted - !warm_submitted in
  let sim_blocking =
    if offered = 0 then 0.0 else float_of_int (!dropped - !warm_dropped) /. float_of_int offered
  in
  let sim_queue = if !queue_n = 0 then 0.0 else !queue_sum /. float_of_int !queue_n in
  let sim_sojourn = if !sojourn_n = 0 then 0.0 else !sojourn_sum /. float_of_int !sojourn_n in
  let prm = { Model.rate = lambda; service_rate; capacity = queue_capacity } in
  let p = Model.evaluate ~service:Model.Deterministic prm in
  { rho;
    sim_queue;
    model_queue = p.Model.queue_len;
    sim_sojourn;
    model_sojourn = p.Model.sojourn;
    sim_blocking;
    model_blocking = p.Model.blocking;
    queue_err = rel_err ~floor:0.25 sim_queue p.Model.queue_len;
    sojourn_err = rel_err ~floor:1e-9 sim_sojourn p.Model.sojourn;
    blocking_err = Float.abs (sim_blocking -. p.Model.blocking) }

type outcome = {
  points : point list;
  max_queue_err : float;    (** worst relative queue error below saturation *)
  max_sojourn_err : float;  (** worst relative sojourn error below saturation *)
  max_blocking_err : float; (** worst absolute blocking error, all points *)
  digest : string;          (** canonical point-set digest (determinism) *)
}

let digest_points points =
  let canonical =
    String.concat "\n"
      (List.map
         (fun p ->
           Printf.sprintf "%.6f %.6f %.6f %.6f %.6f %.6f %.6f" p.rho p.sim_queue p.model_queue
             p.sim_sojourn p.model_sojourn p.sim_blocking p.model_blocking)
         points)
  in
  Digest.to_hex (Digest.string canonical)

let summary ?(seed = 42) ?(scale = 1.0) () : outcome =
  let duration = 400.0 *. scale in
  let points =
    List.mapi (fun i rho -> run_point ~seed:(seed + (31 * i)) ~rho ~duration ()) offered_loads
  in
  let below = List.filter (fun p -> p.rho <= saturation_cutoff) points in
  let fold f xs = List.fold_left (fun acc p -> Float.max acc (f p)) 0.0 xs in
  { points;
    max_queue_err = fold (fun p -> p.queue_err) below;
    max_sojourn_err = fold (fun p -> p.sojourn_err) below;
    max_blocking_err = fold (fun p -> p.blocking_err) points;
    digest = digest_points points }

let figure_of (o : outcome) : Report.figure =
  let series label f = { Report.label; points = List.map (fun p -> (p.rho, f p)) o.points } in
  { Report.id = "model-check";
    title = "Analytic OFA model vs simulation: pin-queue length over offered load";
    x_label = "offered load (lambda/mu per member)";
    y_label = "mean pin-queue length (jobs)";
    series =
      [ series "simulated" (fun p -> p.sim_queue);
        series "model" (fun p -> p.model_queue);
        series "relative error" (fun p -> p.queue_err) ] }
