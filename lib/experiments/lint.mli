(** Lint scenarios for [scotch-sim verify-net]: each builds an
    experiment topology, drives it to a seeded steady state and runs
    the {!Scotch_verify} invariant checker — on a frozen snapshot
    ({!run_all}) or continuously on every rule delta ({!watch_all}).
    A clean tree yields zero diagnostics on every scenario. *)

(** The scenario's network under a caller-chosen config, ready to run. *)
type built = {
  b_run : until:float -> unit;
  b_check : unit -> Scotch_verify.Diagnostic.t list; (** frozen-snapshot lint *)
  b_hooks : unit -> Scotch_verify.Hooks.t option;    (** testbed-installed hooks *)
  b_until : float;                                   (** steady-state horizon *)
}

type scenario = {
  name : string;
  build : ?config:Scotch_core.Config.t -> seed:int -> unit -> built;
}

val names : string list

(** [run_all ?seed ?only ()] runs every scenario ([only] restricts to
    the named ones; unknown names raise [Invalid_argument]) and returns
    [(name, diagnostics)] pairs in declaration order. *)
val run_all :
  ?seed:int -> ?only:string list -> unit -> (string * Scotch_verify.Diagnostic.t list) list

(** Continuous-mode lint result: the incremental verifier's final
    diagnostic set (with first-violation virtual timestamps) and its
    counters after the scenario's workload ran under
    [Config.Continuous]. *)
type watch_report = {
  w_diagnostics : Scotch_verify.Diagnostic.t list;
  w_updates : int;            (** deltas applied at the chokepoints *)
  w_classes_touched : int;    (** equivalence classes re-walked, total *)
  w_class_count : int;        (** tracked classes at run end *)
  w_equiv_checks : int;       (** full-rescan audits *)
  w_equiv_mismatches : int;   (** audits that disagreed (must be 0) *)
  w_p50_us : float;           (** per-update latency, median (wall µs) *)
  w_p99_us : float;           (** per-update latency, p99 (wall µs) *)
}

(** [watch_all ?seed ?only ()] runs scenarios under [Config.Continuous]
    — the testbed installs the incremental verifier, every delta is
    re-checked as the workload runs — returning [(name, report)] pairs
    in declaration order.  Unknown [only] names raise
    [Invalid_argument]. *)
val watch_all : ?seed:int -> ?only:string list -> unit -> (string * watch_report) list
