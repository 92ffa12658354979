(** First-class tenant identity for control-plane blast-radius
    isolation.

    A tenant owns a weighted share of the overlay select groups, an
    admission budget on every Fig. 7 scheduler and OFA pin queue, and
    its own demand view in the elastic autoscaler — so one tenant's
    spoofed-SYN flood sheds only its own flows and cannot lock out
    anyone else's control path.  With no tenancy configured (the
    default) a run is one default tenant ({!default}). *)

type id = int

(** Flows that cannot be attributed to a configured tenant land here. *)
val default_id : id

type spec = {
  id : id;
  name : string;           (** label value on tenant-dimensioned metrics *)
  share : int;             (** weight in the overlay select groups, >= 1 *)
  sched_budget : int option;
      (** max queued ingress submissions per managed switch; [None] =
          only the shared Fig. 7 thresholds apply *)
  pin_budget : int option;
      (** max queued Packet-In jobs per OFA pin queue; [None] = only
          the shared queue capacity applies *)
}

(** The one tenant an untenanted run consists of: {!default_id},
    share 1, no budgets. *)
val default : spec

(** Raises [Invalid_argument] on a non-positive share or budget. *)
val make :
  ?sched_budget:int -> ?pin_budget:int -> ?share:int -> id:id -> string -> spec

(** Raises [Invalid_argument] on an empty list, duplicate ids, or a
    spec with a non-positive share or budget. *)
val check_specs : spec list -> unit

(** [apportion ~slots ~shares] splits [slots] select-group buckets over
    weighted [shares] by largest-remainder apportionment.  The result
    lists every input id in order, allocations sum to [slots], and —
    whenever [slots >= List.length shares] — every tenant gets at
    least one slot.  Deterministic: remainder ties break toward the
    earlier tenant.  Shares below 1 are clamped to 1. *)
val apportion : slots:int -> shares:(id * int) list -> (id * int) list
