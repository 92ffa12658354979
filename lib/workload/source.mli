(** A traffic source: launches new flows from a host toward a
    destination according to an arrival process, each flow shaped by a
    spec sampler.  Clients, attackers and trace replay are built on
    this.

    Ephemeral ports come from per-source windows allocated per engine,
    so two sources on one host never emit colliding 5-tuples and runs
    stay deterministic per seed. *)

open Scotch_topo

type arrival = Poisson | Constant

type t

(** [spoof_sources] spoofs a fresh source IP per flow — the hping3 DDoS
    behaviour of §3.2 ("we simulate the new flows by spoofing each
    packet's source IP address").  Such a source only counts its flows
    ({!launched_count}, {!packets_sent}): it keeps no per-flow record,
    so {!launched} stays empty and the failure and completion fractions
    read 0. *)
val create :
  Scotch_sim.Engine.t -> rng:Scotch_util.Rng.t -> host:Host.t -> dst:Host.t -> rate:float ->
  ?arrival:arrival -> ?spec_of:(Scotch_util.Rng.t -> Flow_gen.flow_spec) ->
  ?spoof_sources:bool -> unit -> t

(** Launch one flow immediately (used by the trace replayer); [spec]
    overrides the source's sampler.  Once launched, a flow runs to
    completion even if the source stops or is retargeted. *)
val launch_flow : ?spec:Flow_gen.flow_spec -> t -> Flow_gen.launched

(** Begin the arrival process; first flow after one interarrival. *)
val start : t -> unit

val stop : t -> unit
val set_rate : t -> float -> unit

(** Retarget subsequent flows (in-flight flows are unaffected). *)
val set_destination : t -> dst:Host.t -> unit

(** Flows launched so far, newest first (none for a spoofing source). *)
val launched : t -> Flow_gen.launched list

val launched_count : t -> int
val packets_sent : t -> int

(** Fraction of this source's flows with no packet delivered at [dst] —
    the paper's {e client flow failure fraction} (§3.2), over flows
    launched within [[since, until]]. *)
val failure_fraction : t -> dst:Host.t -> ?since:float -> ?until:float -> unit -> float

(** Fraction of flows fully delivered (every packet arrived). *)
val completion_fraction : t -> dst:Host.t -> unit -> float
