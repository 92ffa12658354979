(** Device performance profiles.

    These encode the paper's measured control-path characteristics
    (§3.2–3.3, §6.1–6.2) as queueing-model parameters.  The OCR of the
    paper drops trailing digits; DESIGN.md §3 records how each constant
    was recovered.

    The model (see {!Ofa} and {!Switch}):
    - the OFA is a single server with per-message-class service times and
      a bounded input queue;
    - every [housekeeping_period] seconds the OFA stalls for
      [housekeeping_duration] (table maintenance); queue overflow during
      these stalls is what makes rule insertion lossy above a knee well
      below the raw service rate — reproducing Fig. 9 (loss-free up to
      ~200/s, saturation near 1000/s for Pica8);
    - each accepted TCAM write stalls the forwarding pipeline for
      [tcam_write_stall]; each {e rejected} FlowMod additionally stalls
      it for [tcam_reject_stall] (the agent thrashes while shedding
      load) — together these reproduce Fig. 10's knee at ~1300
      attempted insertions/s with >90 % data-path loss past it. *)

type t = {
  (* OFA service times, seconds per message *)
  packet_in_service : float;   (* generate one Packet-In *)
  flow_mod_service : float;    (* install one rule *)
  packet_out_service : float;  (* execute one Packet-Out *)
  misc_service : float;        (* echo, stats, barrier *)
  ofa_queue_capacity : int;    (* controller-message (FlowMod etc.) queue *)
  pin_queue_capacity : int;    (* outbound Packet-In job queue *)
  (* periodic OFA stall (table maintenance) *)
  housekeeping_period : float;   (* 0 = never *)
  housekeeping_duration : float;
  (* data plane *)
  datapath_pps : float;        (* packet lookups per second *)
  forward_latency : float;     (* per-packet pipeline latency, seconds *)
  flow_table_capacity : int;   (* TCAM size, entries per table *)
  tcam_write_stall : float;    (* datapath stall per accepted write *)
  tcam_reject_stall : float;   (* datapath stall per rejected FlowMod *)
}

(** Pica8 Pronto 3780: 10 GbE data ports, weak management CPU.
    Saturation flow-setup rate ~1/(pin+fmod+pout) ≈ 140 flows/s. *)
let pica8 =
  { packet_in_service = 1.0 /. 200.0;
    flow_mod_service = 1.0 /. 1000.0;
    packet_out_service = 1.0 /. 1000.0;
    misc_service = 1.0 /. 5000.0;
    ofa_queue_capacity = 10;
    pin_queue_capacity = 100;
    housekeeping_period = 1.0;
    housekeeping_duration = 0.05;
    datapath_pps = 50e6;
    forward_latency = 5e-6;
    flow_table_capacity = 20000;
    tcam_write_stall = 1.0e-5;
    tcam_reject_stall = 2.6e-3 }

(** HP Procurve 6600: higher OFA throughput than the Pica8 (Fig. 3)
    but an older OpenFlow 1.0 data plane (no tunnels/multi-table). *)
let hp_procurve =
  { packet_in_service = 1.0 /. 1000.0;
    flow_mod_service = 1.0 /. 1000.0;
    packet_out_service = 1.0 /. 1000.0;
    misc_service = 1.0 /. 5000.0;
    ofa_queue_capacity = 20;
    pin_queue_capacity = 200;
    housekeeping_period = 1.0;
    housekeeping_duration = 0.02;
    datapath_pps = 30e6;
    forward_latency = 8e-6;
    flow_table_capacity = 1500;
    tcam_write_stall = 1.0e-5;
    tcam_reject_stall = 1.0e-3 }

(** Open vSwitch on a Xeon E5-1650 host: fast software control agent
    (no TCAM, no housekeeping stalls), slower data plane than switch
    ASICs. *)
let open_vswitch =
  { packet_in_service = 1.0 /. 10000.0;
    flow_mod_service = 1.0 /. 20000.0;
    packet_out_service = 1.0 /. 20000.0;
    misc_service = 1.0 /. 50000.0;
    ofa_queue_capacity = 5000;
    pin_queue_capacity = 5000;
    housekeeping_period = 0.0;
    housekeeping_duration = 0.0;
    datapath_pps = 1e6;
    forward_latency = 40e-6;
    flow_table_capacity = 200_000;
    tcam_write_stall = 0.0;
    tcam_reject_stall = 0.0 }

(** A Scotch overlay vswitch: an {!open_vswitch} selected on a lightly
    loaded host (§4.1). *)
let scotch_vswitch = open_vswitch

(** Maximum sustainable reactive flow-setup rate: one Packet-In, one
    FlowMod and one Packet-Out per flow, minus housekeeping duty. *)
let max_flow_setup_rate t =
  let per_flow = t.packet_in_service +. t.flow_mod_service +. t.packet_out_service in
  let duty =
    if t.housekeeping_period <= 0.0 then 1.0
    else 1.0 -. (t.housekeeping_duration /. t.housekeeping_period)
  in
  duty /. per_flow
