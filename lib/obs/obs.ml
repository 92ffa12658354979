(** Process-wide observability context.

    Counters are always on (an int bump costs nothing); everything that
    allocates or does real work — histograms, trace events — is gated
    by call sites on {!is_enabled}, so with obs off the per-event hot
    loop is untouched.  Components resolve their registry handles at
    construction time, which is why {!reset} must run {e before} a
    network is built, not after. *)

let enabled = ref false

let is_enabled () = !enabled
let enable () = enabled := true
let disable () = enabled := false

let default_registry = Registry.create ()
let default_tracer = ref (Trace.create ())

let registry () = default_registry
let tracer () = !default_tracer

(** [reset ()] wipes the default registry and tracer.  Call before
    constructing the network under observation: handles resolve at
    component creation, so a reset afterwards orphans them. *)
let reset ?capacity () =
  Registry.clear default_registry;
  default_tracer := Trace.create ?capacity ()

(** {1 Registration shorthands on the default registry} *)

let counter ?help ?labels name = Registry.counter default_registry ?help ?labels name

let counter_fn ?help ?labels name f =
  Registry.counter_fn default_registry ?help ?labels name f

let gauge_fn ?help ?labels name f =
  Registry.gauge_fn default_registry ?help ?labels name f

let histogram ?help ?labels ?lo ?hi ?bins name =
  Registry.histogram default_registry ?help ?labels ?lo ?hi ?bins name

(** {1 Trace shorthands on the default tracer}

    Call sites still gate these on {!is_enabled} so the disabled path
    never allocates the [args] list. *)

let span ~name ~cat ~ts ~dur ~tid ~args =
  Trace.complete !default_tracer ~name ~cat ~ts ~dur ~tid ~args

let instant ~name ~cat ~ts ~tid ~args =
  Trace.instant !default_tracer ~name ~cat ~ts ~tid ~args

(** {1 Hot-site decimation}

    Per-packet trace sites (datapath misses, OFA service spans) fire
    millions of times per simulated second; recording each one is the
    dominant observability cost.  A {!hot_site} is a per-call-site tick
    counter: {!hot_keep} keeps the first event at the site and every
    [hot_sample]-th thereafter, so every site still appears in the
    trace (smoke tests rely on this) while the volume drops by the
    sampling factor.  Deterministic — no RNG. *)

type hot_site = { mutable tick : int }

let hot_sample = 8

let hot_site () = { tick = 0 }

let hot_keep site =
  site.tick <- site.tick + 1;
  site.tick mod hot_sample = 1
