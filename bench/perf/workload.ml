(* The four benchmark workloads.  Each is open-loop in simulated time
   (Poisson or constant arrivals, never slowed by the simulator) and a
   closed batch on the host: build, run to the fixed simulated length T,
   harvest.  Sources draw only from the engine seed. *)

open Scotch_experiments
open Scotch_switch
open Scotch_topo
open Scotch_workload
module E = Scotch_sim.Engine
module C = Scotch_controller.Controller
module Scotch = Scotch_core.Scotch
module Hooks = Scotch_verify.Hooks

(* A network built and ready to run: sources started, nothing executed. *)
type net = {
  engine : E.t;
  topo : Topology.t;
  ctrl : C.t;
  app : Scotch.t option;
  hooks : Hooks.t option;
  sources : Source.t list;
  clients : (Source.t * Host.t) list;  (** well-behaved flows and their destination *)
  dests : Host.t list;
  pin_entry : (int * int * Host.t) option;
      (** (dpid, in_port, destination) where replayed spoofed Packet-Ins enter *)
  extra : unit -> (string * float) list;  (** workload-specific counters *)
}

type t = {
  name : string;
  why : string;
  sim_s : float;  (** simulated length T at scale 1 *)
  churn : bool;
  verify : bool;
  build : seed:int -> sim_s:float -> verify:bool -> net;
  floors : (string -> float) -> (string * bool) list;
      (** paper-claim floors over the harvested counters, checked at scale 1 *)
}

let scotch_net_of (n : Testbed.scotch_net) ~sources ~clients ~extra =
  { engine = n.Testbed.engine; topo = n.Testbed.topo; ctrl = n.Testbed.ctrl;
    app = Some n.Testbed.app; hooks = n.Testbed.verify; sources; clients;
    dests = [ n.Testbed.server ];
    pin_entry = Some (Testbed.edge_dpid, Testbed.attacker_edge_port, n.Testbed.server); extra }

let start sources = List.iter Source.start sources

(* The paper's headline scenario (Figs 3/11/13): a spoofed SYN flood at
   the Pica8 edge with four well-behaved clients. *)
let flash_crowd ~seed ~sim_s:_ ~verify:_ =
  let n = Testbed.scotch_net ~seed ~num_clients:4 () in
  let attack = Testbed.attack_source n ~rate:3000.0 () in
  let clients = List.init 4 (fun i -> Testbed.client_source n ~i ~rate:25.0 ()) in
  let sources = attack :: clients in
  start sources;
  scotch_net_of n ~sources
    ~clients:(List.map (fun c -> (c, n.Testbed.server)) clients)
    ~extra:(fun () -> [])

let elephant_count = 16
let elephant_start = 4.0
let elephant_pps = 2000.0

(* Data-plane heavy: CBR elephants enter on the flooded port, so they
   start on the overlay and must be migrated (§5.3). *)
let elephants ~seed ~sim_s ~verify:_ =
  let n = Testbed.scotch_net ~seed ~num_clients:2 () in
  let engine = n.Testbed.engine in
  let flood =
    Source.create engine ~rng:(Scotch_util.Rng.split (E.rng engine)) ~host:n.Testbed.clients.(0)
      ~dst:n.Testbed.server ~rate:400.0 ~spoof_sources:true ()
  in
  let mice =
    Testbed.client_source n ~i:1 ~rate:50.0
      ~spec_of:(fun _ -> { Flow_gen.packets = 5; payload = 200; interval = 0.01 })
      ()
  in
  let big = Testbed.client_source n ~i:0 ~rate:1.0 () in
  let launched = ref [] in
  let detected = Scotch_packet.Flow_key.Hashtbl.create 16 in
  Scotch.set_on_elephant n.Testbed.app (fun key ->
      Scotch_packet.Flow_key.Hashtbl.replace detected key ());
  if sim_s > elephant_start then begin
    let spec =
      { Flow_gen.packets = int_of_float ((sim_s -. elephant_start) *. elephant_pps);
        payload = 1000; interval = 1.0 /. elephant_pps }
    in
    (* all at once: the flood keeps port 1's ingress queue at the
       overlay threshold, so at most the first can take a freed slot *)
    ignore
      (E.schedule_at engine ~at:elephant_start (fun () ->
           for _ = 1 to elephant_count do
             launched := Source.launch_flow big ~spec :: !launched
           done))
  end;
  let sources = [ flood; mice ] in
  start sources;
  let migrated () =
    let db = Scotch.db n.Testbed.app in
    List.length
      (List.filter
         (fun (l : Flow_gen.launched) ->
           Scotch_packet.Flow_key.Hashtbl.mem detected l.Flow_gen.key
           &&
           match Scotch_core.Flow_info_db.find db l.Flow_gen.key with
           | Some e -> e.Scotch_core.Flow_info_db.kind = Scotch_core.Flow_info_db.Physical
           | None -> false)
         !launched)
  in
  scotch_net_of n ~sources:(big :: sources)
    ~clients:[ (mice, n.Testbed.server) ]
    ~extra:(fun () ->
      [ ("elephants.launched", float_of_int (List.length !launched));
        ("elephants.migrated", float_of_int (migrated ())) ])

let churn_rate = 2000.0

(* Fig. 9's protocol at one overloaded rate: all-different wildcard
   rules with a hard timeout, the table size read every 3 s. *)
let rule_churn ~seed ~sim_s:_ ~verify:_ =
  let engine = E.create ~seed () in
  let topo = Topology.create engine in
  let switch = Switch.create engine ~dpid:1 ~name:"dut" ~profile:Profile.pica8 () in
  Topology.add_switch topo switch;
  let ctrl = C.create engine topo in
  let sw = C.connect ctrl switch ~latency:Testbed.control_latency in
  let counter = ref 0 in
  Fig9.jittered_rate engine (E.rng engine) ~rate:churn_rate (fun () ->
      incr counter;
      C.install ctrl sw ~table_id:0 ~priority:10 ~hard_timeout:Fig9.rule_timeout
        ~match_:(Fig9.unique_match !counter)
        ~instructions:(Scotch_openflow.Of_action.output (Scotch_openflow.Of_types.Port_no.Physical 1))
        ());
  let samples = ref [] in
  let warmup = Fig9.rule_timeout +. 3.0 in
  let (_ : unit -> unit) =
    E.every engine ~period:Fig9.query_interval (fun () ->
        let now = E.now engine in
        if now > warmup then
          samples :=
            float_of_int
              (Array.fold_left (fun acc t -> acc + Flow_table.size t ~now) 0 (Switch.tables switch))
            :: !samples)
  in
  let rate () =
    match !samples with
    | [] -> 0.0
    | s -> List.fold_left ( +. ) 0.0 s /. float_of_int (List.length s) /. Fig9.rule_timeout
  in
  { engine; topo; ctrl; app = None; hooks = None; sources = []; clients = []; dests = [];
    pin_entry = None;
    extra =
      (fun () ->
        [ ("churn.rules_attempted", float_of_int !counter); ("churn.insert_rate", rate ()) ]) }

(* The multi-rack fabric under continuous verification: three attackers
   and four clients converge on one host.  The attackers send at a
   constant interval, as hping3 does: with Poisson floods the verifier's
   allocation spread across seeds (IQR/median) was 0.069 against 0.030,
   which drowned the timing.  The clients stay Poisson, so the seed
   still shapes the traffic. *)
let fabric_verify ~seed ~sim_s:_ ~verify =
  let config =
    { Scotch_core.Config.default with
      Scotch_core.Config.verify = (if verify then Scotch_core.Config.Continuous else Off) }
  in
  let fb = Testbed.fabric ~seed ~config () in
  let dst = fb.Testbed.f_hosts.(3).(0) in
  let engine = fb.Testbed.f_engine in
  let attackers =
    List.map
      (fun r ->
        Source.create engine ~rng:(Scotch_util.Rng.split (E.rng engine))
          ~host:fb.Testbed.f_hosts.(r).(1) ~dst ~rate:667.0 ~arrival:Source.Constant
          ~spoof_sources:true ())
      [ 0; 1; 2 ]
  in
  let clients =
    List.init 4 (fun r -> Testbed.fabric_client fb ~src:fb.Testbed.f_hosts.(r).(2) ~dst ~rate:50.0)
  in
  let sources = attackers @ clients in
  start sources;
  { engine = fb.Testbed.f_engine; topo = fb.Testbed.f_topo; ctrl = fb.Testbed.f_ctrl;
    app = Some fb.Testbed.f_app; hooks = fb.Testbed.f_verify; sources;
    clients = List.map (fun c -> (c, dst)) clients; dests = [ dst ];
    pin_entry = Some (Testbed.tor_dpid 0, 2, dst); extra = (fun () -> []) }

let at_least key n get = (Printf.sprintf "%s >= %g" key n, get key >= n)
let at_most key n get = (Printf.sprintf "%s <= %g" key n, get key <= n)

let all =
  [ { name = "flash-crowd";
      why = "paper headline flood at the Pica8 edge: new-flow control path, overlay, growing exact-stats channel";
      sim_s = 20.0; churn = false; verify = false; build = flash_crowd;
      floors = (fun get -> [ at_least "scotch.activations" 1.0 get; at_most "client_fail_frac" 0.10 get ]) };
    { name = "elephants";
      why = "data-plane heavy: CBR elephants on a flooded port, links, exact-flow lookups and 5.3 migration";
      sim_s = 25.0; churn = false; verify = false; build = elephants;
      floors = (fun get -> [ at_least "elephants.migrated" 12.0 get ]) };
    { name = "rule-churn";
      why = "Fig 9 protocol at 2000 rules/s: flow-table writes, expiry sweeps and the OFA FlowMod queue, no app";
      sim_s = 30.0; churn = true; verify = false; build = rule_churn;
      floors = (fun get -> [ at_least "rule_insert_rate" 900.0 get; at_most "rule_insert_rate" 1000.0 get ]) };
    { name = "fabric-verify";
      why = "multi-rack scale-up with continuous verification, the opt-in subsystem the others never touch";
      sim_s = 6.0; churn = false; verify = true; build = fabric_verify;
      floors = (fun get -> [ at_most "verify.errors" 0.0 get; at_most "verify.equiv_mismatches" 0.0 get ]) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Harvest: counters read through non-mutating accessors only
   ([Flow_table.size] sweeps, which would also fire the verifier's
   taps).  These counters are the run digest's input and the raw
   material of every simulated and layer metric. *)

let switches net =
  let l = ref [] in
  Topology.iter_switches net.topo (fun s -> l := s :: !l);
  List.rev !l

let links net =
  List.concat_map
    (fun s -> List.filter_map (Switch.link_of_port s) (Switch.all_ports s))
    (switches net)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Client outcomes: failure over flows launched in [1, T-1] (as the
   paper's client flow failure fraction), setup latency over every
   delivered client flow. *)
let client_counters net ~sim_s =
  let launched = ref 0 and failed = ref 0 in
  let setup = Scotch_util.Stats.Samples.create () in
  List.iter
    (fun (src, dst) ->
      List.iter
        (fun (l : Flow_gen.launched) ->
          let record = Host.flow_record dst l.Flow_gen.flow_id in
          if l.Flow_gen.started >= 1.0 && l.Flow_gen.started <= sim_s -. 1.0 then begin
            incr launched;
            if record = None then incr failed
          end;
          Option.iter
            (fun (r : Host.flow_record) ->
              Scotch_util.Stats.Samples.add setup ((r.Host.first_seen -. l.Flow_gen.started) *. 1e3))
            record)
        (Source.launched src))
    net.clients;
  let pct p =
    if Scotch_util.Stats.Samples.count setup = 0 then 0.0
    else Scotch_util.Stats.Samples.percentile setup p
  in
  [ ("client.launched", float_of_int !launched); ("client.failed", float_of_int !failed);
    ("client.delivered", float_of_int (Scotch_util.Stats.Samples.count setup));
    ("client.setup_p50_ms", pct 0.5); ("client.setup_p99_ms", pct 0.99);
    ("dest.flows_seen", float_of_int (sum Host.flows_seen net.dests)) ]

let harvest net ~sim_s ~probe_ticks =
  let sws = switches net in
  let ofas = List.map (fun s -> Ofa.counters (Switch.ofa s)) sws in
  let tables = List.concat_map (fun s -> Array.to_list (Switch.tables s)) sws in
  let now = E.now net.engine in
  let rules = ref 0 and live = ref 0 in
  List.iter
    (fun t ->
      Flow_table.iter_rules t (fun r ->
          incr rules;
          let expired (timeout, since) = timeout > 0.0 && now -. since >= timeout in
          let expired =
            expired (r.Flow_table.hard_timeout, r.Flow_table.installed_at)
            || expired (r.Flow_table.idle_timeout, r.Flow_table.last_used)
          in
          if not expired then incr live))
    tables;
  let lks = links net in
  let hosts = ref 0 in
  Topology.iter_hosts net.topo (fun h -> hosts := !hosts + Host.received_packets h);
  let i x = float_of_int x in
  let cc = C.counters net.ctrl in
  let base =
    [ ("engine.events", i (E.processed net.engine - probe_ticks));
      ("link.delivered", i (sum Scotch_sim.Link.delivered lks));
      ("link.dropped", i (sum Scotch_sim.Link.dropped lks));
      ("switch.rx", i (sum (fun s -> (Switch.counters s).Switch.rx) sws));
      ("switch.dropped",
        i
          (sum
             (fun s ->
               let c = Switch.counters s in
               c.Switch.dropped_blocked + c.Switch.dropped_capacity + c.Switch.dropped_no_rule
               + c.Switch.dropped_action)
             sws));
      ("ofa.pin_submitted", i (sum (fun c -> c.Ofa.pin_submitted) ofas));
      ("ofa.pin_dropped", i (sum (fun c -> c.Ofa.pin_dropped + c.Ofa.pin_expired) ofas));
      ("ofa.flow_mods_handled", i (sum (fun c -> c.Ofa.flow_mods_handled) ofas));
      ("ofa.flow_mods_dropped", i (sum (fun c -> c.Ofa.flow_mods_dropped) ofas));
      ("ofa.msgs_handled", i (sum (fun c -> c.Ofa.msgs_handled) ofas));
      ("controller.packet_ins", i cc.C.packet_ins);
      ("controller.flow_mods", i cc.C.flow_mods);
      ("controller.expired_requests", i cc.C.expired_requests);
      ("table.rules", i !rules);
      ("table.live", i !live);
      ("table.insert_failures", i (sum Flow_table.insert_failures tables));
      ("host.received", i !hosts);
      ("workload.launched", i (sum Source.launched_count net.sources));
      ("workload.packets_sent", i (sum Source.packets_sent net.sources)) ]
  in
  let app =
    match net.app with
    | None -> []
    | Some app ->
      let c = Scotch.counters app in
      let scheds = List.filter_map (Scotch.sched_of app) (Scotch.managed_dpids app) in
      let em, eb = Scotch.exact_channel app and sm, sb = Scotch.sampled_channel app in
      [ ("scotch.flows_seen", i c.Scotch.flows_seen);
        ("scotch.flows_overlay", i c.Scotch.flows_overlay);
        ("scotch.flows_physical", i c.Scotch.flows_physical);
        ("scotch.flows_dropped", i c.Scotch.flows_dropped);
        ("scotch.activations", i c.Scotch.activations);
        ("scotch.elephants_detected", i c.Scotch.elephants_detected);
        ("scotch.migrations", i c.Scotch.migrations_completed);
        ("sched.shed_total", i (sum Scotch_core.Sched.shed_total scheds));
        ("flow_info_db.entries", i (Scotch_core.Flow_info_db.size (Scotch.db app)));
        ("channel.exact_units", i em); ("channel.exact_bytes", i eb);
        ("channel.sampled_units", i sm); ("channel.sampled_bytes", i sb);
        ("overlay.vswitches", i (List.length (Scotch.vswitch_dpids app))) ]
  in
  let verify =
    match Option.bind net.hooks Hooks.incremental with
    | None -> []
    | Some incr ->
      let st = Scotch_verify.Incremental.stats incr in
      let diag_errors =
        List.length (Scotch_verify.Diagnostic.errors (Scotch_verify.Incremental.diagnostics incr))
      in
      [ ("verify.updates", i st.Scotch_verify.Incremental.updates);
        ("verify.classes_touched", i st.Scotch_verify.Incremental.classes_touched);
        ("verify.equiv_checks", i st.Scotch_verify.Incremental.equiv_checks);
        ("verify.equiv_mismatches", i st.Scotch_verify.Incremental.equiv_mismatches);
        ("verify.errors",
          i (diag_errors + Option.fold ~none:0 ~some:Hooks.error_count net.hooks)) ]
  in
  base @ app @ verify @ client_counters net ~sim_s @ net.extra ()

(* Flow ids and packet ids are process-global, so they are not counters
   and never enter the digest; everything harvested does. *)
let digest counters =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)))
