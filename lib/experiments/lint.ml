(** Lint scenarios for [scotch-sim verify-net]: build each experiment
    topology under continuous verification and drive it to a steady
    state, so the incremental verifier re-checks every rule delta as the
    workload runs and its run-end check audits the maintained
    diagnostic set against a full rescan of a fresh snapshot.  Every
    scenario is seeded and short (a few simulated seconds), so the
    whole suite is deterministic and fast enough for the [@lint]
    alias.

    A clean tree must produce zero diagnostics on every scenario — the
    checker's false-positive budget on real topologies is zero. *)

module V = Scotch_verify
module Config = Scotch_core.Config

(* Each scenario builds its network under [config], so the testbed
   installs the incremental taps, runs it to its steady-state horizon
   and returns the installed hooks. *)
type scenario = {
  name : string;
  run : seed:int -> V.Hooks.t option;
}

let config = { Config.default with Config.verify = Config.Continuous }

let run_net ~until (net : Testbed.scotch_net) =
  Testbed.run_until net ~until;
  net.Testbed.verify

(* Rates chosen against Config.default.activate_pin_rate (100/s): the
   attacker alone pushes the edge switch past activation, so the
   snapshot contains redirect rules, the select group and live vflow
   state — the interesting surface.  4 s of simulated time covers
   activation plus a few monitor intervals of steady state. *)
let steady_state = 4.0
let attack_rate = 300.0
let client_rate = 20.0

let scotch_net_idle ~seed = run_net ~until:1.0 (Testbed.scotch_net ~config ~seed ())

let active_net ~seed ?(num_backups = 0) () =
  let net = Testbed.scotch_net ~config ~seed ~num_vswitches:4 ~num_backups ~num_clients:2 () in
  Scotch_workload.Source.start (Testbed.attack_source net ~rate:attack_rate ());
  Scotch_workload.Source.start (Testbed.client_source net ~i:0 ~rate:client_rate ());
  Scotch_workload.Source.start (Testbed.client_source net ~i:1 ~rate:client_rate ());
  net

let scotch_net_active ~seed = run_net ~until:steady_state (active_net ~seed ())

let scotch_net_backups ~seed = run_net ~until:steady_state (active_net ~seed ~num_backups:2 ())

let scotch_net_firewall ~seed =
  let net = active_net ~seed () in
  (* every flow crosses the firewall segment: both the shared green
     rules and per-flow red rules are on the books when we lint *)
  ignore (Testbed.add_firewall_segment net ~classify:(fun _ -> true));
  run_net ~until:steady_state net

let fabric ~seed =
  let fb = Testbed.fabric ~config ~seed ~num_racks:3 ~hosts_per_rack:2 () in
  let host ~rack ~slot = fb.Testbed.f_hosts.(rack).(slot) in
  Scotch_workload.Source.start
    (Testbed.fabric_attack fb ~src:(host ~rack:0 ~slot:0) ~dst:(host ~rack:2 ~slot:1)
       ~rate:attack_rate);
  Scotch_workload.Source.start
    (Testbed.fabric_client fb ~src:(host ~rack:1 ~slot:0) ~dst:(host ~rack:2 ~slot:0)
       ~rate:client_rate);
  Scotch_sim.Engine.run ~until:steady_state fb.Testbed.f_engine;
  fb.Testbed.f_verify

let scenarios =
  [ (* evaluation network at rest: miss rules only, overlay dormant *)
    { name = "scotch-net-idle"; run = scotch_net_idle };
    (* flash crowd past activation: redirects, select group, live vflows *)
    { name = "scotch-net-active"; run = scotch_net_active };
    (* activated overlay with standby backup vswitches registered *)
    { name = "scotch-net-backups"; run = scotch_net_backups };
    (* middlebox policy segment: green/red rules share the tables (S5.4) *)
    { name = "scotch-net-firewall"; run = scotch_net_firewall };
    (* leaf-spine fabric, cross-rack crowd over rack-local vswitches *)
    { name = "fabric"; run = fabric } ]

let names = List.map (fun s -> s.name) scenarios

let find name = List.find_opt (fun s -> s.name = name) scenarios

let select only =
  match only with
  | None -> scenarios
  | Some names ->
    List.filter_map
      (fun n ->
        match find n with
        | Some s -> Some s
        | None -> invalid_arg (Printf.sprintf "unknown lint scenario %S" n))
      names

(* ------------------------------------------------------------------ *)
(* Continuous verification *)

type watch_report = {
  w_diagnostics : V.Diagnostic.t list;
  w_updates : int;
  w_classes_touched : int;
  w_class_count : int;
  w_equiv_checks : int;
  w_equiv_mismatches : int;
  w_p50_us : float;
  w_p99_us : float;
}

(** Run a scenario: the testbed installs the incremental verifier,
    every rule/group/liveness delta is re-checked as the workload runs,
    and the run-end phase check audits the maintained diagnostic set
    against a full rescan.  Returns the final diagnostics (with
    first-violation timestamps) plus the verifier's
    update/class/audit counters and per-update latency percentiles. *)
let watch_all ?(seed = 42) ?only () =
  List.map
    (fun s ->
      let incr =
        match Option.bind (s.run ~seed) V.Hooks.incremental with
        | Some incr -> incr
        | None ->
          (* every lint topology routes through the testbed, which
             installs hooks whenever the knob is not [Off] *)
          invalid_arg (Printf.sprintf "scenario %S installed no continuous verifier" s.name)
      in
      let st = V.Incremental.stats incr in
      ( s.name,
        { w_diagnostics = V.Incremental.diagnostics incr;
          w_updates = st.V.Incremental.updates;
          w_classes_touched = st.V.Incremental.classes_touched;
          w_class_count = st.V.Incremental.class_count;
          w_equiv_checks = st.V.Incremental.equiv_checks;
          w_equiv_mismatches = st.V.Incremental.equiv_mismatches;
          w_p50_us = st.V.Incremental.p50_us;
          w_p99_us = st.V.Incremental.p99_us } ))
    (select only)
