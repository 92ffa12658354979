(** Trace-driven experiment (§6 intro: "the trace driven experiment that
    demonstrates the benefits of Scotch to the application performance
    in a realistic network environment"; reconstructed — truncated in
    §6).

    A synthetic trace with heavy-tailed flow sizes and a flash-crowd
    window (arrival rate × flash multiplier toward a hotspot server)
    is replayed twice — plain reactive control vs Scotch.  Reported:
    per-bin flow success fraction over time.  The baseline collapses
    during the flash crowd; Scotch rides it out. *)

open Scotch_workload

let bin_width = 5.0

let trace_params ~scale =
  { Tracegen.duration = 60.0 *. scale;
    base_rate = 40.0;
    flash_start = 20.0 *. scale;
    flash_end = 40.0 *. scale;
    flash_multiplier = 30.0;
    hotspot_fraction = 0.7;
    num_sources = 4;
    num_destinations = 3;
    size_of = Sizes.pareto ~alpha:1.3 ~min_packets:2 ~max_packets:200 ~pkt_rate:200.0 () }

let run_variant ?(seed = 42) ~scotch_enabled ~params () =
  let net =
    Testbed.scotch_net ~seed ~num_clients:params.Tracegen.num_sources
      ~num_servers:params.Tracegen.num_destinations ~scotch_enabled ()
  in
  let replay = Testbed.replay_trace net ~seed params in
  Testbed.run_until net ~until:(params.Tracegen.duration +. 2.0);
  Testbed.success_bins ~bin_width ~until:params.Tracegen.duration (Testbed.harvest net replay)

let run ?(seed = 42) ?(scale = 1.0) () : Report.figure =
  let params = trace_params ~scale in
  { Report.id = "fig15";
    title =
      Printf.sprintf
        "Trace-driven flash crowd (x%.0f burst during [%.0f,%.0f] s): flow success over time"
        params.Tracegen.flash_multiplier params.Tracegen.flash_start params.Tracegen.flash_end;
    x_label = "time (s)";
    y_label = "flow success fraction (per 5 s bin)";
    series =
      [ { Report.label = "Scotch"; points = run_variant ~seed ~scotch_enabled:true ~params () };
        { Report.label = "baseline (reactive)";
          points = run_variant ~seed ~scotch_enabled:false ~params () } ] }
