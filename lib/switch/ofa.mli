(** The OpenFlow Agent: the switch's software control plane, and the
    control-path bottleneck at the heart of the paper (§3.1).

    One server, two bounded queues — controller messages (strict
    priority) and outbound Packet-In jobs — plus a periodic
    housekeeping stall during which queues overflow.  Service times and
    capacities come from {!Profile}; ±5 % service jitter and a
    per-device housekeeping phase prevent cross-device phase locking
    (see DESIGN.md §3).

    The Packet-In queue admits through {!Scotch_util.Admission}: tenant
    budgets and tallies, same-tenant eviction and deadline expiry are
    the shared rules, while the capacity check and the [pin_*]
    counters stay here.  An untenanted agent is one tenant (id 0). *)

open Scotch_openflow
open Scotch_packet

type pin_job = {
  in_port : int;
  tunnel_id : int option;
  reason : Of_types.Packet_in_reason.t;
  packet : Packet.t;
}

(** Switch-side effects triggered when jobs complete. *)
type handler = {
  install_flow : Of_msg.Flow_mod.t -> (unit, [ `Table_full ]) result;
  modify_group :
    Of_msg.Group_mod.t ->
    (unit, [ `Group_exists | `Unknown_group | `Empty_buckets ]) result;
  execute_packet_out : Of_msg.Packet_out.t -> unit;
  flow_stats : Of_msg.Stats.flow_stats_request -> Of_msg.Stats.flow_stats_reply;
  group_stats : unit -> Of_msg.Stats.group_stats_reply;
  telemetry : unit -> Of_msg.Telemetry.report; (** drain the sampler window *)
  on_flow_mod_rejected : unit -> unit; (** datapath reject-stall hook *)
}

type counters = {
  mutable pin_submitted : int;
      (** new-flow packets offered to the pin queue (the arrival
          process, before any admission verdict) *)
  mutable pin_sent : int;          (** Packet-In messages emitted *)
  mutable pin_dropped : int;       (** new-flow packets lost at the pin queue *)
  mutable pin_expired : int;       (** queued pin jobs shed past the deadline *)
  mutable pin_budget_dropped : int;
      (** refused by the submitter's own tenant budget — kept out of
          [pin_dropped] so budget enforcement never reads as overload *)
  mutable flow_mods_handled : int;
  mutable flow_mods_dropped : int; (** controller messages lost at the queue *)
  mutable msgs_handled : int;
}

type t

(** [dpid] labels this agent's metrics and trace rows (0 = unowned). *)
val create :
  ?housekeeping_phase:float -> ?jitter_seed:int -> ?dpid:int -> Scotch_sim.Engine.t ->
  profile:Profile.t -> handler:handler -> t

(** Wire the switch→controller direction (set by the control
    channel). *)
val connect_controller : t -> (Of_msg.t -> unit) -> unit

val counters : t -> counters

(** Failure injection (§5.6 testing): a dead agent neither serves nor
    accepts anything — in particular it stops answering Echo requests,
    which is how the controller detects the failure. *)
val set_dead : t -> bool -> unit

val is_dead : t -> bool

(** Failure injection: multiply every service time by the factor (1.0
    restores nominal speed; raises on non-positive factors).  Models a
    CPU-starved agent rather than a dead one. *)
val set_slowdown : t -> float -> unit

val slowdown : t -> float

(** Failure injection: freeze the agent until absolute time [until].
    Unlike {!set_dead} the agent still accepts (and overflows) queue
    entries, it just does not serve them — the §3.1 housekeeping
    pathology, stretched. *)
val stall : t -> until:float -> unit

val stalled_until : t -> float

(** What a new-flow packet arriving at a full Packet-In queue does
    (default [Drop_new], §3.2's tail drop).  [Drop_oldest] and
    [Priority_preserving] both evict the submitter's own tenant's
    oldest queued job in its favour: under sustained overload a recent
    miss is far more likely to still have a live flow behind it. *)
val set_pin_policy : t -> Scotch_util.Admission.policy -> unit

(** Shed queued pin jobs older than this (seconds) at serve time
    instead of emitting a Packet-In nobody can act on; [0.] (default)
    disables expiry.  Raises on negative values. *)
val set_pin_deadline : t -> float -> unit

(** Attribute pin jobs to tenants (default: every job is tenant 0).
    Applied once per job, at submission. *)
val set_pin_tenant_classifier : t -> (pin_job -> int) -> unit

(** The Packet-In queue's per-tenant budgets and submitted / queued /
    shed tallies.  Past its budget a tenant sheds only its own jobs,
    and eviction never crosses a tenant boundary. *)
val admission : t -> Scotch_util.Admission.t

(** Queue a new-flow packet for Packet-In generation; dropped (counted)
    when the queue is full — the control-path loss of §3.2. *)
val submit_packet_in : t -> pin_job -> unit

(** The controller→switch direction.  A full queue drops the message;
    dropped FlowMods additionally trigger the datapath reject-stall
    hook (the TCAM thrash of Fig. 10). *)
val deliver_message : t -> Of_msg.t -> unit

(** (controller-message, Packet-In) queue depths, for observability. *)
val queue_depths : t -> int * int

(** Pin jobs shed by the shared queue: [pin_dropped + pin_expired].
    Excludes [pin_budget_dropped] — a tenant hitting its own budget is
    isolation working, not pool overload. *)
val shed_total : t -> int
