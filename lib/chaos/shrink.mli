(** Schedule shrinking by delta debugging (Zeller's ddmin). *)

type stats = {
  tests : int;  (** predicate calls that ran a simulation *)
}

(** [ddmin ~still_fails xs] minimizes the failing list [xs] to a
    1-minimal sublist: it still fails, and removing any single element
    makes the failure disappear.  [still_fails] must be deterministic;
    calls are memoized per candidate list.  Raises [Invalid_argument]
    if [xs] is empty or does not fail. *)
val ddmin : still_fails:('a list -> bool) -> 'a list -> 'a list * stats
