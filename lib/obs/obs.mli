(** Process-wide observability context: one default {!Registry} and
    {!Trace} shared by every subsystem, plus the master switch.

    Counters are always on; histogram observations and trace events are
    gated by call sites on {!is_enabled} (also settable via the
    [SCOTCH_OBS=1] environment variable), so the disabled hot path adds
    no allocations. *)

(** True when tracing/histograms should record.  Initialised from
    [SCOTCH_OBS] ([1]/[true]/[yes]/[on]). *)
val is_enabled : unit -> bool

val enable : unit -> unit
val disable : unit -> unit

val registry : unit -> Registry.t
val tracer : unit -> Trace.t

(** Wipe the default registry and replace the tracer (optionally with a
    new capacity).  Call {e before} building the network: handles
    resolve at component creation. *)
val reset : ?capacity:int -> unit -> unit

(** {1 Shorthands on the default registry/tracer} *)

val counter : ?help:string -> ?labels:Registry.labels -> string -> Registry.counter
val counter_fn : ?help:string -> ?labels:Registry.labels -> string -> (unit -> int) -> unit
val gauge_fn : ?help:string -> ?labels:Registry.labels -> string -> (unit -> float) -> unit

val histogram :
  ?help:string -> ?labels:Registry.labels -> ?lo:float -> ?hi:float -> ?bins:int ->
  string -> Registry.histogram

val span :
  name:string -> cat:string -> ts:float -> dur:float -> tid:int ->
  args:(string * string) list -> unit

val instant :
  name:string -> cat:string -> ts:float -> tid:int -> args:(string * string) list -> unit

(** {1 Hot-site decimation}

    Per-packet trace sites (datapath misses, OFA service spans)
    dominate observability cost.  Allocate one {!hot_site} per call
    site and gate the event on {!hot_keep}: the first event at the
    site is always kept (so every site still appears in the trace) and
    thereafter one in eight is.  Deterministic — no RNG. *)

type hot_site

val hot_site : unit -> hot_site

(** [hot_keep site] ticks the site and says whether this event should
    be recorded. *)
val hot_keep : hot_site -> bool
