(** Device performance profiles: the paper's measured control-path
    characteristics (§3.2–3.3, §6.1–6.2) as queueing-model parameters.
    DESIGN.md §3 records how each constant was recovered from the
    (OCR-damaged) paper text and how the pieces combine to reproduce
    Figs. 3/4/9/10. *)

type t = {
  (* OFA service times, seconds per message *)
  packet_in_service : float;   (** generate one Packet-In *)
  flow_mod_service : float;    (** install one rule *)
  packet_out_service : float;  (** execute one Packet-Out *)
  misc_service : float;        (** echo, stats, barrier *)
  ofa_queue_capacity : int;    (** controller-message (FlowMod etc.) queue *)
  pin_queue_capacity : int;    (** outbound Packet-In job queue *)
  (* periodic OFA stall (table maintenance) *)
  housekeeping_period : float;   (** 0 = never *)
  housekeeping_duration : float;
  (* data plane *)
  datapath_pps : float;        (** packet lookups per second *)
  forward_latency : float;     (** per-packet pipeline latency, seconds *)
  flow_table_capacity : int;   (** TCAM size, entries per table *)
  tcam_write_stall : float;    (** datapath stall per accepted write *)
  tcam_reject_stall : float;   (** datapath stall per rejected FlowMod *)
}

(** Pica8 Pronto 3780: 10 GbE data plane, weak management CPU;
    reactive flow setup saturates near 140 flows/s. *)
val pica8 : t

(** HP Procurve 6600: higher OFA throughput than the Pica8 (Fig. 3)
    but an older OpenFlow 1.0 data plane. *)
val hp_procurve : t

(** Open vSwitch on a Xeon host: fast software agent, slower data
    plane. *)
val open_vswitch : t

(** An overlay vswitch: {!open_vswitch} on a lightly loaded host
    (§4.1). *)
val scotch_vswitch : t

(** Maximum sustainable reactive flow-setup rate: one Packet-In, one
    FlowMod and one Packet-Out per flow, minus housekeeping duty. *)
val max_flow_setup_rate : t -> float
