(* The one table of metric names, units, directions and bounds.  The
   printed report, the result files, `perf.exe spec` (which prints
   BENCHMARK.json) and the spec check all read it, so a metric cannot be
   measured without being declared or declared without being measured. *)

type better = Lower | Higher

type tier =
  | End_to_end  (** host-measured, obs off; gated by [bound] *)
  | Simulated   (** outcome in simulated time, deterministic per seed *)
  | Layer       (** one layer's share of the work, from the traced pass *)

(* Which workloads a metric means something on; elsewhere it reads 0. *)
type scope =
  | Any
  | Traffic  (** workloads with hosts, links and the Scotch app *)
  | Churn    (** the bare-controller rule-insertion workload *)
  | Verify   (** workloads running the continuous verifier *)

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the parent's median a change may lose *)
  tier : tier;
  scope : scope;
}

let e2e name unit_ bound = { name; unit_; better = Lower; bound; tier = End_to_end; scope = Any }
let sim name unit_ better scope = { name; unit_; better; bound = 0.0; tier = Simulated; scope }
let layer ?(better = Lower) ?(scope = Any) name unit_ =
  { name; unit_; better; bound = 0.0; tier = Layer; scope }

let all =
  [ (* end to end: what a user running the simulator waits for and pays *)
    e2e "setup_s" "s" 0.25;
    e2e "wall_per_sim_s" "s/s" 0.25;
    e2e "alloc_mwords_per_sim_s" "Mwords/s" 0.10;
    e2e "live_heap_mb" "MB" 0.05;
    (* the simulated outcome a user reads off the paper's figures *)
    sim "client_fail_frac" "fraction" Lower Traffic;
    sim "flow_setup_p50_ms" "sim_ms" Lower Traffic;
    sim "flow_setup_p99_ms" "sim_ms" Lower Traffic;
    sim "flow_setup_n" "flows" Higher Traffic;
    sim "flows_served_per_s" "flows/s" Higher Traffic;
    sim "rule_insert_rate" "rules/s" Higher Churn;
    (* engine and event heap *)
    layer "engine.events_per_sim_s" "events/sim_s";
    layer ~better:Higher "engine.events_per_s" "events/s";
    layer "engine.words_per_event" "words";
    layer "engine.pending_peak" "events";
    layer "engine.ns_per_event" "ns";
    layer "engine.share" "fraction";
    (* links *)
    layer ~scope:Traffic "link.packets_per_sim_s" "pkts/sim_s";
    layer ~scope:Traffic "link.drop_frac" "fraction";
    layer ~scope:Traffic "link.queue_peak" "pkts";
    (* switch datapath *)
    layer ~scope:Traffic "switch.rx_per_sim_s" "pkts/sim_s";
    layer ~scope:Traffic "switch.drop_frac" "fraction";
    layer ~scope:Traffic "switch.punt_frac" "fraction";
    (* flow tables *)
    layer "flow_table.rules_present" "rules";
    layer "flow_table.stale_frac" "fraction";
    layer "flow_table.insert_failures" "count";
    layer "flow_table.lookup_ns" "ns";
    layer "flow_table.insert_ns" "ns";
    layer "flow_table.sweep_ns_per_rule" "ns";
    layer "flow_table.stats_ns_per_rule" "ns";
    layer "flow_table.lookup_share" "fraction";
    layer "flow_table.insert_share" "fraction";
    layer "flow_table.stats_share" "fraction";
    (* OpenFlow agent queues *)
    layer "ofa.pin_submitted_per_sim_s" "jobs/sim_s";
    layer "ofa.pin_drop_frac" "fraction";
    layer "ofa.flow_mod_drop_frac" "fraction";
    layer "ofa.pin_queue_peak" "jobs";
    layer "ofa.msg_queue_peak" "msgs";
    (* controller *)
    layer "controller.packet_ins_per_sim_s" "msgs/sim_s";
    layer "controller.flow_mods_per_sim_s" "msgs/sim_s";
    layer "controller.expired_requests" "count";
    layer "controller.pending_peak" "requests";
    (* the Scotch app: Sched, Flow_info_db, Overlay *)
    layer ~scope:Traffic "scotch.flows_seen_per_sim_s" "flows/sim_s";
    layer ~scope:Traffic "scotch.overlay_frac" "fraction";
    layer ~scope:Traffic "scotch.shed_frac" "fraction";
    layer ~scope:Traffic ~better:Higher "scotch.migrations" "count";
    layer ~scope:Traffic "scotch.decision_p99_ms" "sim_ms";
    layer ~scope:Traffic "scotch.stats_records_per_sim_s" "records/sim_s";
    layer ~scope:Traffic "scotch.packet_in_ns" "ns";
    layer ~scope:Traffic "scotch.packet_in_share" "fraction";
    layer ~scope:Traffic "sched.ingress_backlog_peak" "items";
    layer ~scope:Traffic "sched.shed_total" "count";
    layer ~scope:Traffic "flow_info_db.entries" "entries";
    (* OpenFlow wire codec *)
    layer ~scope:Traffic "of_wire.bytes_per_sim_s" "B/sim_s";
    layer "of_wire.encode_ns_per_record" "ns";
    layer ~scope:Traffic "of_wire.share" "fraction";
    (* continuous verification *)
    layer ~scope:Verify "verify.updates_per_sim_s" "updates/sim_s";
    layer ~scope:Verify "verify.classes_touched_per_update" "classes";
    layer ~scope:Verify "verify.p50_update_us" "us";
    layer ~scope:Verify "verify.p99_update_us" "us";
    layer ~scope:Verify "verify.equiv_mismatches" "count";
    layer ~scope:Verify "verify.errors" "count";
    layer ~scope:Verify "verify.share" "fraction";
    (* the input, read back: must not move *)
    layer ~scope:Traffic ~better:Higher "workload.flows_launched_per_sim_s" "flows/sim_s";
    layer ~scope:Traffic ~better:Higher "workload.packets_sent_per_sim_s" "pkts/sim_s";
    layer ~scope:Traffic ~better:Higher "host.packets_received_per_sim_s" "pkts/sim_s";
    (* OCaml runtime *)
    layer "gc.minor_collections_per_sim_s" "1/sim_s";
    layer "gc.major_collections_per_sim_s" "1/sim_s";
    layer "gc.promoted_words_per_sim_s" "words/sim_s";
    (* the bench itself *)
    layer "trace.overhead_frac" "fraction";
    layer "unattributed_share" "fraction" ]

let of_tier tier = List.filter (fun m -> m.tier = tier) all

let applies m ~churn ~verify =
  match m.scope with
  | Any -> true
  | Traffic -> not churn
  | Churn -> churn
  | Verify -> verify

let better_string = function Lower -> "lower" | Higher -> "higher"

(* Is [v] worse than [base] in the metric's direction? *)
let worse m ~base v = match m.better with Lower -> v > base | Higher -> v < base
