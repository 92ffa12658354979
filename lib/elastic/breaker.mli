(** Per-vswitch circuit breaker with hysteresis: a pure state machine
    fed health-probe outcomes, deciding when a member is ejected from
    (and readmitted to) the load-balancing pool.

    Closed → Open when the EWMA health score sinks below
    {!eject_below}; Open → Half_open after {!half_open_after} seconds
    of quarantine; Half_open → Closed after {!readmit_probes}
    consecutive healthy probes with the score back above
    {!readmit_above} (any unhealthy probe snaps back to Open).
    [readmit_above] > [eject_below] — Schmitt-trigger hysteresis, so a
    member hovering at one threshold cannot flap the pool. *)

(** Weight of the newest sample in the EWMA health score (0.3). *)
val ewma_alpha : float

(** Open the breaker when the score sinks below this (0.3). *)
val eject_below : float

(** Score required, with the streak, to close again (0.7). *)
val readmit_above : float

(** Quarantine time before probing resumes, s (2.0). *)
val half_open_after : float

type state = Closed | Open | Half_open

type probe = Reply of float (** round-trip time, s *) | Timeout

type event = Ejected | Readmitted

type t

(** [create ?rtt_budget ()] — [rtt_budget] (default 0.02 s) is the
    probe round trip considered fully healthy.  Raises
    [Invalid_argument] unless it is positive. *)
val create : ?rtt_budget:float -> unit -> t

val state : t -> state

(** Current EWMA health score in [0,1]; starts optimistic at 1. *)
val score : t -> float

(** Fold one probe outcome in ([now] is virtual time); returns the
    pool-membership change it triggers, if any. *)
val observe : t -> now:float -> probe -> event option
