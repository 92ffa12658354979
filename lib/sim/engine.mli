(** Discrete-event simulation engine.

    Events are closures ordered by (time, sequence); the sequence number
    makes simultaneous events fire in scheduling order, so runs are
    fully deterministic.  One engine owns the master PRNG from which all
    traffic sources split their streams.

    The queue is a binary min-heap the engine owns, on parallel arrays
    of unboxed data: times, sequence numbers and an int key naming what
    to run, so scheduling an event allocates no event record and a sift
    never takes the write barrier.  A one-off closure from {!schedule}
    waits in a slot table until its event pops; a {!handler} registered
    once is fired by {!fire} with no allocation at all.

    Every scheduled event runs: there is no cancelling.  A component
    that may no longer want an event leaves a flag for the event to
    read and return on, as {!every}'s stop function does. *)

type t

(** [create ~seed ()] makes an engine at time 0. *)
val create : ?seed:int -> unit -> t

(** Current simulation time, in seconds. *)
val now : t -> float

(** Master PRNG; call {!Scotch_util.Rng.split} to derive per-source
    streams. *)
val rng : t -> Scotch_util.Rng.t

(** Number of events executed so far. *)
val processed : t -> int

(** [schedule_at t ~at f] runs [f] at absolute time [at].  Raises
    [Invalid_argument] when [at] is in the past or NaN. *)
val schedule_at : t -> at:float -> (unit -> unit) -> unit

(** [schedule t ~delay f] runs [f] after [delay] seconds.  Raises
    [Invalid_argument] on a negative or NaN delay. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** A closure registered with the engine for its whole lifetime.

    Register handlers per component, when the network is built (one
    per link, switch, port or middlebox), never per flow or per event:
    a handler is never freed. *)
type handler [@@immediate]

(** [handler t f] registers [f]; firing the result runs it. *)
val handler : t -> (unit -> unit) -> handler

(** [fire t ~delay h] runs the handler [h] after [delay] seconds, as an
    event ordered like one from {!schedule}; it allocates nothing.
    Raises [Invalid_argument] on a negative or NaN delay. *)
val fire : t -> delay:float -> handler -> unit

(** [fire_at t ~at h] runs the handler [h] at absolute time [at], like
    {!fire}: no allocation.  Raises [Invalid_argument] when [at] is in
    the past or NaN. *)
val fire_at : t -> at:float -> handler -> unit

(** Execute the next event, advancing {!now} to its time; [false]
    when the queue is empty. *)
val step : t -> bool

(** [run ?until t] executes events in order until the queue drains or
    simulation time would exceed [until]; when stopped by [until] the
    clock is advanced exactly to it and remaining events stay queued. *)
val run : ?until:float -> t -> unit

(** [on_run_end t f] registers [f] to run (in registration order) every
    time {!run} returns — the quiesced-network moment continuous
    verification resyncs at. *)
val on_run_end : t -> (unit -> unit) -> unit

(** [every t ~period ?start f] runs [f] every [period] seconds
    starting at [now + start] (default [now + period]); [start] phases
    periodic tasks sharing a period apart from each other.  Returns a
    stop function.  Raises [Invalid_argument] unless [period] is
    positive and [start] non-negative (NaN is neither). *)
val every :
  t -> period:float -> ?start:float -> (unit -> unit) -> unit -> unit

(** Pending event count. *)
val pending : t -> int

(** Engine-scoped unique small integers, for allocations that must be
    deterministic per run (e.g. traffic sources' ephemeral-port
    windows) rather than global to the process. *)
val fresh_user_id : t -> int

(** Fresh flow id, from 1 up, unique within this engine (bookkeeping
    identity only — it never influences forwarding). *)
val fresh_flow_id : t -> int
