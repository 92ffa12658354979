(** Sampled flow telemetry vs exact stats polling (§5.3).

    {!Fig12.scenario} (control-path attack driving everything onto the
    overlay, CBR elephants launched among the mice) run once per
    detection policy on the same seed.  Ground truth is the set of
    launched elephant keys; the {!Scotch.set_on_elephant} hook records
    what each policy detected and when.  Reported per sampling rate:
    detection precision and recall against ground truth, mean
    time-to-detect from elephant launch, and the control-channel
    reduction factor (exact-path message units / sampled-path message
    units — the stats-channel load the telemetry subsystem exists to
    cut). *)

open Scotch_workload
open Scotch_core
open Scotch_packet

(** The headline sampling rate (1/100) the smoke gate checks. *)
let default_rate = 0.01

type outcome = {
  o_label : string;
  o_rate : float;      (** sampling probability; 0 for the exact baseline *)
  o_truth : int;       (** elephants launched *)
  o_detected : int;    (** distinct flows flagged as elephants *)
  o_true_pos : int;
  o_precision : float; (** 1.0 when nothing was flagged *)
  o_recall : float;
  o_ttd : float;       (** mean launch→detection delay (s); [nan] if none *)
  o_msgs : int;        (** detection channel cost, message units *)
  o_bytes : int;       (** detection channel cost, wire bytes *)
  o_migrations : int;
  o_verify_checks : int; (** verification checks run (0 when verify off) *)
  o_verify_errors : int; (** error-severity diagnostics across all checks *)
}

let label_of = function
  | Config.Exact_polling -> "exact"
  | Config.Sampled r -> Printf.sprintf "sampled@%g" r

let run_mode ?seed ~verify ~detection ~duration () =
  let truth = Flow_key.Hashtbl.create 8 in
  let net =
    Fig12.scenario ?seed
      ~config:{ Config.default with Config.detection; verify }
      ~duration
      ~on_launch:(fun l -> Flow_key.Hashtbl.replace truth l.Flow_gen.key ())
      ()
  in
  (* distinct detections with their first detection time *)
  let detected = Flow_key.Hashtbl.create 16 in
  Scotch.set_on_elephant net.Testbed.app (fun key ->
      if not (Flow_key.Hashtbl.mem detected key) then
        Flow_key.Hashtbl.replace detected key (Scotch_sim.Engine.now net.Testbed.engine));
  Testbed.run_until net ~until:duration;
  let n_detected = Flow_key.Hashtbl.length detected in
  let true_pos, ttd_sum =
    Flow_key.Hashtbl.fold
      (fun key at (tp, sum) ->
        if Flow_key.Hashtbl.mem truth key then (tp + 1, sum +. (at -. Fig12.elephant_start))
        else (tp, sum))
      detected (0, 0.0)
  in
  let app = net.Testbed.app in
  let rate, (msgs, bytes) =
    match detection with
    | Config.Exact_polling -> (0.0, Scotch.exact_channel app)
    | Config.Sampled r -> (r, Scotch.sampled_channel app)
  in
  { o_label = label_of detection;
    o_rate = rate;
    o_truth = Flow_key.Hashtbl.length truth;
    o_detected = n_detected;
    o_true_pos = true_pos;
    o_precision = (if n_detected = 0 then 1.0
                   else float_of_int true_pos /. float_of_int n_detected);
    o_recall = (if Flow_key.Hashtbl.length truth = 0 then 1.0
                else float_of_int true_pos /. float_of_int (Flow_key.Hashtbl.length truth));
    o_ttd = (if true_pos = 0 then Float.nan else ttd_sum /. float_of_int true_pos);
    o_msgs = msgs;
    o_bytes = bytes;
    o_migrations = (Scotch.counters app).Scotch.migrations_completed;
    o_verify_checks =
      (match net.Testbed.verify with
      | Some v -> Scotch_verify.Hooks.checks_run v
      | None -> 0);
    o_verify_errors =
      (match net.Testbed.verify with
      | Some v -> Scotch_verify.Hooks.error_count v
      | None -> 0) }

let reduction ~(exact : outcome) ~(sampled : outcome) =
  if sampled.o_msgs = 0 then Float.infinity
  else float_of_int exact.o_msgs /. float_of_int sampled.o_msgs

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let duration = Stdlib.max 12.0 (20.0 *. scale) in
  let verify = Config.Off in
  let exact = run_mode ~seed ~verify ~detection:Config.Exact_polling ~duration () in
  let rates = [ 0.005; default_rate; 0.05 ] in
  let sampled =
    List.map (fun r -> run_mode ~seed ~verify ~detection:(Config.Sampled r) ~duration ()) rates
  in
  let points f = List.map (fun o -> (o.o_rate, f o)) sampled in
  { Report.id = "telemetry";
    title =
      Printf.sprintf
        "Sampled elephant detection vs exact polling (baseline: %d/%d detected, %d msg units, ttd %.2fs)"
        exact.o_true_pos exact.o_truth exact.o_msgs exact.o_ttd;
    x_label = "sampling rate";
    y_label = "precision / recall / time-to-detect (s) / channel reduction (x)";
    series =
      [ { Report.label = "precision"; points = points (fun o -> o.o_precision) };
        { Report.label = "recall"; points = points (fun o -> o.o_recall) };
        { Report.label = "time-to-detect (s)";
          points = points (fun o -> if Float.is_nan o.o_ttd then 0.0 else o.o_ttd) };
        { Report.label = "channel reduction (x)";
          points = points (fun o -> reduction ~exact ~sampled:o) } ] }
