(** A chaos schedule: one self-contained, replayable trial — seed,
    deployment config, background workload, oracle tolerance and the
    fault list itself.  The fault list (not a generator seed) is the
    source of truth, which is what lets the shrinker rewrite it and
    the repro file replay it exactly. *)

type workload = {
  duration : float;  (** seconds of background traffic *)
  base_rate : float;  (** steady per-source launch rate, flows/s *)
  flash_multiplier : float;
      (** mid-run flash-crowd factor over the middle half of the
          window; 1.0 = flat load *)
  sources : int;  (** concurrent client sources *)
}

type tolerance = {
  base_loss : float;
      (** admitted-flow loss fraction allowed even with no faults *)
  exposure_loss : float;
      (** extra allowed loss per unit of severity-weighted exposure *)
  max_loss : float;  (** hard cap on the total allowance *)
}

type cfg = {
  reconcile : bool;  (** installs through the reliable layer (PR 3) *)
  tenancy : bool;  (** two-tenant deployment with budgets (PR 8) *)
  tolerance : tolerance;
}

type t = {
  seed : int;
  cfg : cfg;
  workload : workload;
  faults : Scotch_faults.Fault.t list;  (** sorted by [Fault.compare] *)
}

(** [make ~seed ~cfg ~workload faults] sorts [faults] into plan order. *)
val make : seed:int -> cfg:cfg -> workload:workload -> Scotch_faults.Fault.t list -> t

(** [with_faults t faults] — the shrinker's rewrite: same trial, a
    subset of the faults. *)
val with_faults : t -> Scotch_faults.Fault.t list -> t

(** The fault list as an injector plan. *)
val plan : t -> Scotch_faults.Plan.t

val equal : t -> t -> bool

val default_workload : workload
val default_cfg : cfg

(** Wire tag of a fault kind (["crash"], ["chan-dup"], …). *)
val kind_tag : Scotch_faults.Fault.kind -> string

(** Line-based text serialization.  Floats are printed as [%h] hex
    literals, so [parse (print t) = Ok t] holds exactly. *)
val print : t -> string

(** Inverse of {!print}; faults are re-validated through the
    {!Scotch_faults.Fault} smart constructors, so a hand-edited file
    with nonsense parameters is rejected, not silently accepted. *)
val parse : string -> (t, string) result

val pp : Format.formatter -> t -> unit
