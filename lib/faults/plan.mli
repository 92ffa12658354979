(** Fault plans: a schedule of {!Fault.t} values with stable ids.

    A plan is an explicit list (targeted what-if scenarios: "kill
    vswitch 101 at t=12"); seeded background fault weather is
    {!Scotch_chaos.Gen}'s job.  Plans compose with {!merge}, and ids
    follow injection order, so a run's recovery ledger is reproducible
    bit-for-bit. *)

type t

val empty : t

(** [of_list faults] sorts by injection time and assigns ids 0, 1, …
    in that order. *)
val of_list : Fault.t list -> t

(** [merge a b] combines two plans and renumbers. *)
val merge : t -> t -> t

(** The (id, fault) pairs, sorted by {!Fault.compare}. *)
val faults : t -> (int * Fault.t) list

val length : t -> int

(** Latest fault-clearing time in the plan ([neg_infinity] when empty;
    permanent faults count their injection time); lets callers size
    the simulation horizon. *)
val last_activity : t -> float

val pp : Format.formatter -> t -> unit
