(** The elastic control loop: health-probes the vswitch pool through
    per-member circuit {!Breaker}s and autoscales pool capacity.

    Probing: every 0.25 s each alive vswitch gets an Echo request with
    a 0.3 s deadline; round trips (or timeouts) feed the member's
    control-path breaker, whose transitions quarantine/readmit it in
    the Scotch pool.  The heartbeat still owns hard liveness; the
    breaker covers gray failures — members that answer, but slowly.

    Autoscaling: utilization = total overlay Packet-In demand over
    active capacity.  Utilization above 0.8 for 3 ticks (or any fresh
    admission-layer shedding) scales up — promoting the
    lowest-dpid standby or calling [provision]; sustained idleness
    below [low_water] demotes the highest-dpid active member to
    draining standby.  Hysteresis bands, sustain counts and a 2 s
    cooldown make the loop deterministic and oscillation-free. *)

module C = Scotch_controller.Controller
module Scotch = Scotch_core.Scotch

type config = {
  rtt_budget : float;
      (** Echo round trip the per-member control-path breaker counts as
          fully healthy, s *)
  data_probe : (int -> Breaker.probe) option;
      (** synchronous per-tick delivery probe of a member's data path
          (argument: member dpid); [None] (default) disables the data
          axis.  Data-axis ejection removes the member from forwarding
          ({!Scotch.fail_vswitch}); control-axis ejection only drains
          it from flow-setup duty. *)
  tenant_shares : (int * int) list;
      (** [(tenant, share)] weights for per-tenant autoscaler views;
          [[]] (default) keeps the aggregate view.  Demand and fresh
          shedding count toward scaling only up to each tenant's
          entitlement, so one tenant's flash crowd cannot starve
          another's pool headroom. *)
  vswitch_capacity : float;  (** new-flow/s one pool member absorbs *)
  low_water : float;         (** utilization below this counts toward scale-down *)
  sustain_down : int;        (** consecutive idle ticks before scaling down *)
  min_pool : int;            (** never demote below this many active members *)
  max_pool : int;            (** never grow beyond this many active members *)
}

val default_config : config

(** One autoscaler action, for oscillation analysis. *)
type action = { time : float; dir : [ `Up | `Down ] }

type counters = {
  mutable ejects : int;
  mutable readmits : int;
  mutable data_ejects : int;   (** data-axis breaker removals from forwarding *)
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable probes_sent : int;
  mutable probe_timeouts : int;
}

type t

(** [create ?config ?provision app] — [provision] is called when
    scale-up finds no standby to promote; it must build, join (active)
    and return the new member, or [None] when the substrate is out of
    capacity.  Raises on inconsistent configs. *)
val create : ?config:config -> ?provision:(unit -> C.sw option) -> Scotch.t -> t

(** Launch the control loop.  Idempotent. *)
val start : t -> unit

val stop : t -> unit

(** Autoscaler actions taken so far, oldest first. *)
val actions : t -> action list

val counters : t -> counters

(** EWMA control-path health score of a probed member. *)
val health_score : t -> int -> float option

val breaker_state : t -> int -> Breaker.state option

val data_breaker_state : t -> int -> Breaker.state option
