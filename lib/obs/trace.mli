(** Virtual-time tracer: spans/instants stamped with [Engine.now],
    bounded ring-buffer memory, Chrome trace-event JSON export
    (chrome://tracing / Perfetto). *)

type t

type phase = Complete | Instant

type event = {
  name : string;
  cat : string; (* subsystem: switch | controller | core | reliable | fault *)
  phase : phase;
  ts_ns : int; (* virtual nanoseconds — int keeps the record float-free *)
  dur_ns : int; (* virtual nanoseconds; 0 for instants *)
  tid : int; (* viewer row — dpid, 0 for the controller *)
  args : (string * string) list;
}

(** [create ~capacity ()] — ring of [capacity] events (default 65536).
    When full, the oldest retained events are evicted (newest wins). *)
val create : ?capacity:int -> unit -> t

(** Record a span: [ts] is its virtual start time, [dur] its length. *)
val complete :
  t -> name:string -> cat:string -> ts:float -> dur:float -> tid:int ->
  args:(string * string) list -> unit

(** Record a point event. *)
val instant :
  t -> name:string -> cat:string -> ts:float -> tid:int ->
  args:(string * string) list -> unit

(** Events currently retained / total offered / evicted by ring wrap. *)
val length : t -> int

val emitted : t -> int
val dropped : t -> int

(** Retained events, oldest first. *)
val events : t -> event list

(** Chrome trace-event JSON ([{"traceEvents":[...]}]); virtual seconds
    are exported as viewer microseconds. *)
val to_chrome_json : t -> string

(** MD5 hex digest of a canonical one-line-per-event dump — two
    same-seed runs must agree byte-for-byte. *)
val digest : t -> string
