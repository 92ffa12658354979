(** First-class fault values.

    A fault is an injection time, a duration and a target, plus a kind
    describing what breaks.  The kinds cover the failure surface the
    paper's §5.6 machinery (heartbeats, backup vswitches, group-bucket
    rebalancing) is supposed to absorb, and the control-path pathologies
    of §3 stretched into outright faults:

    - {!Vswitch_crash}: both planes of an overlay vswitch die; the
      controller must notice via heartbeat loss and fail over.
    - {!Ofa_slowdown} / {!Ofa_stall}: the switch's software agent gets
      CPU-starved or freezes outright (queues keep overflowing).
    - {!Channel_delay} / {!Channel_drop}: the management network
      degrades — latency spikes or message loss on the control channel.
    - {!Channel_dup} / {!Channel_reorder}: the management network
      misbehaves without losing anything — a message is delivered twice
      (TCP-below-the-app retransmit absorbed as two reads), or held
      back long enough that later messages overtake it.  Both planes'
      handlers must be idempotent and order-tolerant to survive these.
    - {!Link_down}: a data link flaps (addressed as a (switch, port)
      pair; tunnel ports flap the overlay legs).
    - {!Stats_outage}: the controller's vswitch stats polling stops
      (elephant detection blind spot; under a sampled detection policy
      the telemetry polls stop through the same gate).
    - {!Vswitch_degrade}: a {e gray} failure — the vswitch's agent
      slows down gradually (service-time inflation ramps up to a peak
      and back), never missing a heartbeat; only a health-scored
      circuit breaker notices.
    - {!Controller_pause}: a stop-the-world controller freeze (GC
      pause, failover hiccup) — arrivals are deferred, not lost.

    Faults are plain data so plans can be built by hand, generated from
    a seeded PRNG ({!Scotch_chaos.Gen}) or compared across runs. *)

type kind =
  | Vswitch_crash
  | Ofa_slowdown of float   (* service-time multiplier, > 1 *)
  | Ofa_stall
  | Channel_delay of float  (* extra one-way latency, seconds *)
  | Channel_drop of float   (* per-message loss probability *)
  | Channel_dup of float    (* per-message duplication probability *)
  | Channel_reorder of float (* per-message reorder (hold-back) probability *)
  | Link_down of int        (* port id on the target switch *)
  | Stats_outage
  | Vswitch_degrade of float (* peak service-time multiplier, > 1; ramps *)
  | Controller_pause
  | Tenant_flood of float   (* spoofed new-flow flood, flows/s; target = tenant id *)

type t = {
  at : float;       (* injection time (absolute simulation seconds) *)
  duration : float; (* [infinity] means the fault is never lifted *)
  target : int;     (* dpid of the afflicted switch; 0 for Stats_outage *)
  kind : kind;
}

(* Negated, so that NaN fails them too. *)
let check ~at ~duration name =
  if not (at >= 0.0) then invalid_arg (name ^ ": negative injection time");
  if not (duration > 0.0) then invalid_arg (name ^ ": duration must be positive")

(** [vswitch_crash ~at ?duration dpid] kills vswitch [dpid] at [at];
    with a finite [duration] it comes back (and rejoins as a backup,
    §5.6) after that long. *)
let vswitch_crash ~at ?(duration = infinity) target =
  check ~at ~duration "Fault.vswitch_crash";
  { at; duration; target; kind = Vswitch_crash }

let ofa_slowdown ~at ~duration ~factor target =
  check ~at ~duration "Fault.ofa_slowdown";
  if factor <= 1.0 then invalid_arg "Fault.ofa_slowdown: factor must exceed 1";
  { at; duration; target; kind = Ofa_slowdown factor }

let ofa_stall ~at ~duration target =
  check ~at ~duration "Fault.ofa_stall";
  { at; duration; target; kind = Ofa_stall }

let channel_delay ~at ~duration ~extra target =
  check ~at ~duration "Fault.channel_delay";
  if extra <= 0.0 then invalid_arg "Fault.channel_delay: extra latency must be positive";
  { at; duration; target; kind = Channel_delay extra }

let channel_drop ~at ~duration ~probability target =
  check ~at ~duration "Fault.channel_drop";
  if probability <= 0.0 || probability >= 1.0 then
    invalid_arg "Fault.channel_drop: probability must be in (0,1)";
  { at; duration; target; kind = Channel_drop probability }

let channel_dup ~at ~duration ~probability target =
  check ~at ~duration "Fault.channel_dup";
  if probability <= 0.0 || probability >= 1.0 then
    invalid_arg "Fault.channel_dup: probability must be in (0,1)";
  { at; duration; target; kind = Channel_dup probability }

let channel_reorder ~at ~duration ~probability target =
  check ~at ~duration "Fault.channel_reorder";
  if probability <= 0.0 || probability >= 1.0 then
    invalid_arg "Fault.channel_reorder: probability must be in (0,1)";
  { at; duration; target; kind = Channel_reorder probability }

let link_down ~at ~duration ~port target =
  check ~at ~duration "Fault.link_down";
  { at; duration; target; kind = Link_down port }

let stats_outage ~at ~duration =
  check ~at ~duration "Fault.stats_outage";
  { at; duration; target = 0; kind = Stats_outage }

(** [vswitch_degrade ~at ~duration ~peak dpid] — gray failure: the
    vswitch's service times inflate in steps up to [peak]× over the
    window and recover at the end.  Requires a finite duration (the
    ramp is scheduled across it). *)
let vswitch_degrade ~at ~duration ~peak target =
  check ~at ~duration "Fault.vswitch_degrade";
  if duration = infinity then
    invalid_arg "Fault.vswitch_degrade: duration must be finite";
  if peak <= 1.0 then invalid_arg "Fault.vswitch_degrade: peak must exceed 1";
  { at; duration; target; kind = Vswitch_degrade peak }

(** [controller_pause ~at ~duration] freezes the controller (GC-stall
    style): incoming messages are deferred until the window ends. *)
let controller_pause ~at ~duration =
  check ~at ~duration "Fault.controller_pause";
  if duration = infinity then
    invalid_arg "Fault.controller_pause: duration must be finite";
  { at; duration; target = 0; kind = Controller_pause }

(** [tenant_flood ~at ~duration ~rate tenant] — a spoofed-source
    new-flow flood ([rate] flows/s of one-packet probes) attributed to
    tenant [tenant]: the blast-radius-isolation attack of the
    [isolation] experiment.  Requires a finite duration (the attack
    source is started and stopped around the window). *)
let tenant_flood ~at ~duration ~rate target =
  check ~at ~duration "Fault.tenant_flood";
  if duration = infinity then invalid_arg "Fault.tenant_flood: duration must be finite";
  if rate <= 0.0 then invalid_arg "Fault.tenant_flood: rate must be positive";
  { at; duration; target; kind = Tenant_flood rate }

(** End of the fault's active window ([infinity] for permanent ones). *)
let ends_at t = t.at +. t.duration

let kind_label = function
  | Vswitch_crash -> "vswitch-crash"
  | Ofa_slowdown f -> Printf.sprintf "ofa-slowdown-x%g" f
  | Ofa_stall -> "ofa-stall"
  | Channel_delay d -> Printf.sprintf "chan-delay+%gms" (1e3 *. d)
  | Channel_drop p -> Printf.sprintf "chan-drop-p%g" p
  | Channel_dup p -> Printf.sprintf "chan-dup-p%g" p
  | Channel_reorder p -> Printf.sprintf "chan-reorder-p%g" p
  | Link_down port -> Printf.sprintf "link-down-port%d" port
  | Stats_outage -> "stats-outage"
  | Vswitch_degrade p -> Printf.sprintf "vswitch-degrade-x%g" p
  | Controller_pause -> "controller-pause"
  | Tenant_flood r -> Printf.sprintf "tenant-flood-%gfps" r

(** Human/ledger label, e.g. ["vswitch-crash@101"]. *)
let label t =
  match t.kind with
  | Stats_outage | Controller_pause -> kind_label t.kind
  | _ -> Printf.sprintf "%s@%d" (kind_label t.kind) t.target

(** Total order: injection time, then target, then kind — the plan
    order, and a stable tiebreak for simultaneous faults. *)
let compare a b =
  match Float.compare a.at b.at with
  | 0 -> (match Int.compare a.target b.target with 0 -> Stdlib.compare a.kind b.kind | c -> c)
  | c -> c

let pp fmt t =
  Format.fprintf fmt "%s@@%.3fs%s" (label t) t.at
    (if t.duration = infinity then "" else Printf.sprintf "+%.3fs" t.duration)
