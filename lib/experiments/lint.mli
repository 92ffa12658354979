(** Lint scenarios for [scotch-sim verify-net]: each builds an
    experiment topology and drives it to a seeded steady state under
    continuous verification ({!watch_all}): the {!Scotch_verify}
    incremental checker re-checks every rule delta and audits itself
    against full rescans.  A clean tree yields zero diagnostics and zero
    audit mismatches on every scenario. *)

val names : string list

(** [watch_all ?seed ?only ()] runs scenarios under [Config.Continuous]
    — the testbed installs the incremental verifier, every delta is
    re-checked as the workload runs — returning, in declaration order,
    each scenario's name, the verifier's final diagnostic set (with
    first-violation virtual timestamps) and its counters at run end.
    Unknown [only] names raise [Invalid_argument]. *)
val watch_all :
  ?seed:int -> ?only:string list -> unit ->
  (string * Scotch_verify.Diagnostic.t list * Scotch_verify.Incremental.stats) list
