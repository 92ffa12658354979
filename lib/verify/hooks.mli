(** Verification hooks: under [Config.Continuous], verify incrementally
    on every flow-mod, group-mod and liveness flip at the install
    chokepoints, and resync against a whole-network snapshot after each
    vswitch repair the app or the fault injector announces
    ({!Scotch_core.Scotch.on_recovery}) and whenever an
    {!Scotch_sim.Engine.run} call returns.

    The mode comes from the app's {!Scotch_core.Config.verify} knob.
    With [Config.Off] (the default), {!install} is a no-op and
    production runs pay nothing.  Findings are collected, not raised:
    read {!reports} / {!error_count} after the run; diagnostics carry
    the virtual time each violation first appeared
    ({!Diagnostic.first_at}). *)

type report = {
  phase : string; (** which check fired: "post-recovery" or "run-end" *)
  at : float;     (** simulation time of the check *)
  diagnostics : Diagnostic.t list;
}

type t

(** Seconds between a recovery notification and its check: control-channel
    sends are asynchronous, so device state lags controller intent by a
    few channel latencies — and a recovery can race a concurrent
    failure's detection window.  Half a second of simulated time lets
    the dataplane settle. *)
val settle_delay : float

(** [install ~engine ~topo scotch] builds an {!Incremental} verifier,
    taps every switch's dataplane updates and the reliable layer's
    intent changes (each switch's store is read in place), re-verifies
    what each delta can affect and audits against a full rescan every
    1024 updates.  It also resyncs (and records a "post-recovery" report) {!settle_delay}
    after each vswitch repair, and at every {!Scotch_sim.Engine.run}
    return.  Returns [None] under [Config.Off]. *)
val install :
  engine:Scotch_sim.Engine.t -> topo:Scotch_topo.Topology.t -> Scotch_core.Scotch.t -> t option

(** Completed checks, oldest first. *)
val reports : t -> report list

(** Number of checks run so far. *)
val checks_run : t -> int

(** Total [Error]-severity diagnostics across all reports. *)
val error_count : t -> int

(** Reports for one label ("post-recovery" or "run-end"). *)
val reports_of_phase : t -> string -> report list

(** The incremental verifier (latency/class statistics live on it);
    always [Some] for installed hooks. *)
val incremental : t -> Incremental.t option
