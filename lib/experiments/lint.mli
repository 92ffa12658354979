(** Lint scenarios for [scotch-sim verify-net]: each builds an
    experiment topology and drives it to a seeded steady state under
    continuous verification ({!watch_all}): the {!Scotch_verify}
    incremental checker re-checks every rule delta and audits itself
    against full rescans.  A clean tree yields zero diagnostics and zero
    audit mismatches on every scenario. *)

val names : string list

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
