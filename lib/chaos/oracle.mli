(** The end-to-end safety oracles: the one definition of "the control
    plane recovered", shared by scripted experiments and the chaos
    search. *)

type reconcile_obs = {
  converged : bool;
  outstanding : int;  (** intent operations still in flight at run end *)
}

type breaker_obs = {
  dpid : int;
  state : string;  (** "closed" | "open" | "half-open" | "none" *)
  demoted : bool;
      (** on the bench (backup) at run end: allowed to stay ejected *)
}

(** A finished trial, distilled to plain data. *)
type observation = {
  launched : int;  (** admitted background flows *)
  delivered : int;  (** of those, delivered end-to-end *)
  verify_errors : int;
  reconcile : reconcile_obs option;
  breakers : breaker_obs list;
  victim_sheds : int option;
      (** tenancy on: sheds charged to the victim tenant *)
  digest : string;  (** bit-identity fingerprint of the whole run *)
}

type oracle =
  | Verify_clean  (** post-recovery dataplane passes the invariant checker *)
  | Reconcile_converged  (** no stranded intents, no resurrected rules *)
  | Bounded_loss  (** admitted-flow loss bounded by the schedule's exposure *)
  | Breaker_liveness  (** every ejected member readmitted or demoted *)
  | Tenant_isolation  (** victim tenant sheds nothing *)
  | Determinism  (** same schedule, bit-identical digests *)

type violation = { oracle : oracle; detail : string }

val oracle_name : oracle -> string
val oracle_of_name : string -> oracle option

(** Severity-weighted fraction of the workload window the schedule
    spends under failure; the unit of {!Schedule.tolerance}'s
    [exposure_loss]. *)
val exposure : Schedule.t -> float

(** Loss fraction the tolerance allows at a given exposure. *)
val allowed_loss : Schedule.tolerance -> exposure:float -> float

(** All violations of the non-determinism oracles, in severity order
    (empty = healthy). *)
val check : Schedule.t -> observation -> violation list

(** Same-seed determinism: compare two runs of one schedule. *)
val check_determinism : first:observation -> second:observation -> violation option

val pp_violation : Format.formatter -> violation -> unit
