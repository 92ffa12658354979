(** Virtual-time tracer: spans and instants stamped with [Engine.now],
    exported as Chrome trace-event JSON (chrome://tracing / Perfetto).

    Memory is bounded by a ring buffer: once it is full the oldest
    retained events are dropped (newest-wins, so the tail of a run is
    always visible).  Hot call sites thin their own events with
    [Obs.hot_site].  All recording is O(1) per event; the only
    allocation on the record path is the event itself (plus its [args]
    list when non-empty) — times are stored as integer virtual
    nanoseconds so the record stays float-free, i.e. one flat block
    with no boxed fields.  Call sites still gate recording behind
    [Obs.is_enabled]. *)

type phase = Complete | Instant

type event = {
  name : string;
  cat : string; (* subsystem: switch | controller | core | reliable | fault *)
  phase : phase;
  ts_ns : int; (* virtual nanoseconds ([Engine.now] * 1e9) *)
  dur_ns : int; (* span duration in virtual nanoseconds; 0 for instants *)
  tid : int; (* thread row in the viewer — we use the dpid (0 = controller) *)
  args : (string * string) list;
}

(* ring filler; never observable ([len] bounds every read) *)
let dummy = { name = ""; cat = ""; phase = Instant; ts_ns = 0; dur_ns = 0; tid = 0; args = [] }

type t = {
  ring : event array;
  mutable head : int; (* next write position *)
  mutable len : int; (* live events in the ring *)
  mutable emitted : int; (* events offered, before eviction *)
  mutable dropped : int; (* evicted by ring wrap *)
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Array.make capacity dummy; head = 0; len = 0; emitted = 0; dropped = 0 }

let length t = t.len
let emitted t = t.emitted
let dropped t = t.dropped

let record t ev =
  t.emitted <- t.emitted + 1;
  let cap = Array.length t.ring in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.ring.(t.head) <- ev;
  let h = t.head + 1 in
  t.head <- (if h = cap then 0 else h)

let ns s = int_of_float (s *. 1e9)

let complete t ~name ~cat ~ts ~dur ~tid ~args =
  record t { name; cat; phase = Complete; ts_ns = ns ts; dur_ns = ns dur; tid; args }

let instant t ~name ~cat ~ts ~tid ~args =
  record t { name; cat; phase = Instant; ts_ns = ns ts; dur_ns = 0; tid; args }

(** Retained events, oldest first. *)
let events t =
  let cap = Array.length t.ring in
  let start = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i -> t.ring.((start + i) mod cap))

(** {1 Chrome trace-event export}

    Virtual seconds map to the viewer's microseconds, so one simulated
    millisecond reads as 1000 "µs" on the timeline. *)

let usec ns = float_of_int ns /. 1e3

let json_of_event ev =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\"" (Registry.json_escape ev.name)
       (Registry.json_escape ev.cat));
  (match ev.phase with
  | Complete ->
    Buffer.add_string b
      (Printf.sprintf ",\"ph\":\"X\",\"ts\":%s,\"dur\":%s" (Registry.float_str (usec ev.ts_ns))
         (Registry.float_str (usec ev.dur_ns)))
  | Instant ->
    Buffer.add_string b
      (Printf.sprintf ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s" (Registry.float_str (usec ev.ts_ns))));
  Buffer.add_string b (Printf.sprintf ",\"pid\":1,\"tid\":%d" ev.tid);
  if ev.args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%s\":\"%s\"" (Registry.json_escape k) (Registry.json_escape v)))
      ev.args;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (json_of_event ev))
    (events t);
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

(** {1 Determinism support} *)

(* One line per event in ring order; used for the digest, so two runs
   with the same seed must produce byte-identical canonical dumps. *)
let canonical t =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b
        (Printf.sprintf "%s|%s|%s|%d|%d|%d|" ev.name ev.cat
           (match ev.phase with Complete -> "X" | Instant -> "i")
           ev.ts_ns ev.dur_ns ev.tid);
      List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%s;" k v)) ev.args;
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let digest t = Digest.to_hex (Digest.string (canonical t))
