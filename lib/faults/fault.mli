(** First-class fault values.

    A fault is an injection time, a duration and a target, plus a kind
    describing what breaks.  The kinds cover the failure surface the
    paper's §5.6 machinery (heartbeats, backup vswitches, group-bucket
    rebalancing) is supposed to absorb, and the control-path
    pathologies of §3 stretched into outright faults.  Faults are plain
    data so plans can be built by hand, generated from a seeded PRNG
    ({!Scotch_chaos.Gen}) or compared across runs.

    Use the smart constructors: they validate times, durations and
    kind parameters ([invalid_arg] on nonsense), which is what lets
    the chaos engine's schedule parser round-trip any value this
    module will ever produce. *)

type kind =
  | Vswitch_crash
      (** both planes of an overlay vswitch die; the controller must
          notice via heartbeat loss and fail over (§5.6) *)
  | Ofa_slowdown of float
      (** the switch agent is CPU-starved: service-time multiplier, > 1 *)
  | Ofa_stall  (** the switch agent freezes outright for the window *)
  | Channel_delay of float  (** extra one-way control latency, seconds *)
  | Channel_drop of float  (** per-message control-channel loss probability *)
  | Channel_dup of float
      (** per-message duplication probability: the message is delivered
          twice, independently jittered *)
  | Channel_reorder of float
      (** per-message reorder probability: the message is held back so
          later messages overtake it *)
  | Link_down of int  (** a data link flaps; port id on the target switch *)
  | Stats_outage  (** vswitch stats polling stops (detection blind spot) *)
  | Vswitch_degrade of float
      (** gray failure: peak service-time multiplier, > 1; ramps up and
          recovers, never missing a heartbeat *)
  | Controller_pause  (** stop-the-world controller freeze; arrivals deferred *)
  | Tenant_flood of float
      (** spoofed new-flow flood, flows/s; target = tenant id *)

type t = {
  at : float;  (** injection time (absolute simulation seconds) *)
  duration : float;  (** [infinity] means the fault is never lifted *)
  target : int;  (** dpid of the afflicted switch; 0 for untargeted kinds *)
  kind : kind;
}

(** [vswitch_crash ~at ?duration dpid] kills vswitch [dpid] at [at];
    with a finite [duration] it comes back (and rejoins as a backup,
    §5.6) after that long. *)
val vswitch_crash : at:float -> ?duration:float -> int -> t

val ofa_slowdown : at:float -> duration:float -> factor:float -> int -> t
val ofa_stall : at:float -> duration:float -> int -> t
val channel_delay : at:float -> duration:float -> extra:float -> int -> t
val channel_drop : at:float -> duration:float -> probability:float -> int -> t

(** [channel_dup ~at ~duration ~probability dpid] — each control
    message to/from [dpid] is delivered twice with [probability]
    (in (0,1)): a retransmit absorbed as two reads.  Handlers must be
    idempotent to survive it. *)
val channel_dup : at:float -> duration:float -> probability:float -> int -> t

(** [channel_reorder ~at ~duration ~probability dpid] — each control
    message to/from [dpid] is held back with [probability] (in (0,1))
    long enough that later messages overtake it. *)
val channel_reorder : at:float -> duration:float -> probability:float -> int -> t

val link_down : at:float -> duration:float -> port:int -> int -> t
val stats_outage : at:float -> duration:float -> t

(** [vswitch_degrade ~at ~duration ~peak dpid] — gray failure: the
    vswitch's service times inflate in steps up to [peak]× over the
    window and recover at the end.  Requires a finite duration. *)
val vswitch_degrade : at:float -> duration:float -> peak:float -> int -> t

(** [controller_pause ~at ~duration] freezes the controller (GC-stall
    style): incoming messages are deferred until the window ends. *)
val controller_pause : at:float -> duration:float -> t

(** [tenant_flood ~at ~duration ~rate tenant] — a spoofed-source
    new-flow flood ([rate] flows/s of one-packet probes) attributed to
    tenant [tenant].  Requires a finite duration. *)
val tenant_flood : at:float -> duration:float -> rate:float -> int -> t

(** End of the fault's active window ([infinity] for permanent ones). *)
val ends_at : t -> float

val kind_label : kind -> string

(** Human/ledger label, e.g. ["vswitch-crash@101"]. *)
val label : t -> string

(** Total order: injection time, then target, then kind — the plan
    order, and a stable tiebreak for simultaneous faults. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
