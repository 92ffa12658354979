(** Fig. 9 — maximum flow-rule insertion rate at the Pica8 switch.

    Protocol per §6.1: the controller generates all-different flow rules
    at a constant rate with a 10 s timeout and no data traffic; it
    periodically (every 3 s; paper: sufficiently long) queries the
    number of installed rules N_k, and the successful insertion rate is
    estimated as mean(N_k)/T.  Expected shape: loss-free up to
    ~200 rules/s, then increasing loss with the successful rate
    flattening out near 1000 rules/s. *)

open Scotch_openflow
open Scotch_switch
open Scotch_packet
module C = Scotch_controller.Controller

let attempted_rates = [ 50.; 100.; 150.; 200.; 300.; 400.; 600.; 800.; 1000.; 1300.; 1600.; 2000. ]

let rule_timeout = 10.0
let query_interval = 3.0

(** Schedule [f] at a near-constant rate with ±5 % uniform jitter.
    Real controllers and agents are never in perfect lockstep with the
    OFA's service clock; exact rate-matching in a deterministic
    simulator creates tie-order artifacts no physical testbed has. *)
let jittered_rate engine rng ~rate f =
  let rec tick () =
    f ();
    let period = 1.0 /. rate *. (0.95 +. Scotch_util.Rng.float rng 0.1) in
    Scotch_sim.Engine.schedule engine ~delay:period tick
  in
  Scotch_sim.Engine.schedule engine ~delay:(1.0 /. rate) tick

let unique_match i =
  Of_match.wildcard
  |> Of_match.with_ip_dst (Ipv4_addr.of_int (Ipv4_addr.to_int (Ipv4_addr.make 192 168 0 0) + i))
  |> Of_match.with_ip_proto Headers.Ipv4.proto_udp

(** One point: successful insertion rate at a given attempted rate. *)
let run_point ?(seed = 42) ~profile ~rate ~duration () =
  let engine = Scotch_sim.Engine.create ~seed () in
  let topo = Scotch_topo.Topology.create engine in
  let switch = Switch.create engine ~dpid:1 ~name:"dut" ~profile () in
  Scotch_topo.Topology.add_switch topo switch;
  let ctrl = C.create engine topo in
  let sw = C.connect ctrl switch ~latency:Testbed.control_latency in
  let counter = ref 0 in
  jittered_rate engine (Scotch_sim.Engine.rng engine) ~rate (fun () ->
      incr counter;
      C.install ctrl sw ~table_id:0 ~priority:10 ~hard_timeout:rule_timeout
        ~match_:(unique_match !counter)
        ~instructions:(Of_action.output (Of_types.Port_no.Physical 1))
        ());
  (* Sample installed-rule counts once the table is in steady state.
     Reading happens switch-side (the paper reads them over the control
     channel with a long query interval; past the saturation point the
     channel itself cannot even carry the query, so we instrument the
     switch directly — the estimator is unchanged). *)
  let samples = ref [] in
  let warmup = rule_timeout +. 3.0 in
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every engine ~period:query_interval (fun () ->
        if Scotch_sim.Engine.now engine > warmup then begin
          let n =
            Array.fold_left
              (fun acc table ->
                acc + Flow_table.size table ~now:(Scotch_sim.Engine.now engine))
              0 (Switch.tables switch)
          in
          samples := float_of_int n :: !samples
        end)
  in
  ignore sw;
  Scotch_sim.Engine.run ~until:duration engine;
  match !samples with
  | [] -> 0.0
  | s ->
    let mean = List.fold_left ( +. ) 0.0 s /. float_of_int (List.length s) in
    mean /. rule_timeout

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max (rule_timeout +. 10.0) (30.0 *. scale) in
  let points =
    List.map (fun r -> (r, run_point ~seed ~profile:Profile.pica8 ~rate:r ~duration ()))
      attempted_rates
  in
  { Report.id = "fig9";
    title = "Maximum flow rule insertion rate at the Pica8 switch";
    x_label = "attempted insertion rate (rules/s)";
    y_label = "successful insertion rate (rules/s)";
    series =
      [ { Report.label = "Successful insertion rate"; points };
        { Report.label = "Attempted (y=x reference)";
          points = List.map (fun r -> (r, r)) attempted_rates } ] }
