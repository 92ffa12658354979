(** Metrics registry: typed counters, pull gauges and histograms with
    label sets, deterministic snapshotting, Prometheus-text exposition.

    Handles are resolved once (at component construction); the hot-path
    update operations on a handle are plain mutable-field stores and
    allocate nothing.  Gauges are pull-only: a closure read at snapshot
    time.  See DESIGN.md §10 for the counter naming scheme. *)

type t

(** Label pairs, e.g. [[("dpid", "3")]].  Stored sorted by key, so
    registration and exposition order are label-order independent. *)
type labels = (string * string) list

type counter
type histogram

val create : unit -> t

(** Drop every registered metric (handles held by components become
    dangling: they still update their cells, but snapshots no longer
    include them — re-register after a clear). *)
val clear : t -> unit

(** Number of registered metric instances. *)
val size : t -> int

(** {1 Registration — resolve handles once, at setup}

    Registering an existing (name, labels) pair returns the same
    handle; registering it as a different metric kind raises
    [Invalid_argument]. *)

val counter : t -> ?help:string -> ?labels:labels -> string -> counter

(** [counter_fn t name f] re-expresses an existing component ledger on
    the registry: [f] (typically a field read of the component's own
    counters record) is polled at snapshot time, so the hot path is
    untouched.  Re-registration replaces the closure. *)
val counter_fn : t -> ?help:string -> ?labels:labels -> string -> (unit -> int) -> unit

(** [gauge_fn t name f] registers a pull-style gauge: [f] is evaluated
    at snapshot time.  Re-registration replaces the closure (last
    writer wins), so rebuilt networks shadow stale ones. *)
val gauge_fn : t -> ?help:string -> ?labels:labels -> string -> (unit -> float) -> unit

(** Fixed-bin histogram over [lo, hi) (defaults 0..1, 50 bins);
    out-of-range observations land in under/overflow bins.  Bounds are
    ignored on re-registration. *)
val histogram :
  t -> ?help:string -> ?labels:labels -> ?lo:float -> ?hi:float -> ?bins:int ->
  string -> histogram

(** {1 Hot-path updates — O(1), allocation-free} *)

val incr : counter -> unit
val counter_value : counter -> int

(** Observations are batched: the hot path is a single array store, and
    binning runs once per 64 observations or lazily at the first read
    ({!quantile_opt}/exposition). *)
val observe : histogram -> float -> unit

val quantile_opt : histogram -> float -> float option

(** {1 Snapshotting / exposition} *)

type sample = {
  s_name : string;
  s_labels : labels;
  s_value : float; (* histograms report their observation count *)
}

(** Flat snapshot, sorted by (name, labels) — deterministic. *)
val samples : t -> sample list

(** Prometheus text-format exposition ([# HELP]/[# TYPE] once per
    family, histograms as cumulative [_bucket]/[_sum]/[_count]). *)
val to_prometheus : t -> string

(**/**)

(* Shared with Trace for consistent JSON output. *)
val json_escape : string -> string
val float_str : float -> string
