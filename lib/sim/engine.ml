(** Discrete-event simulation engine.

    Events are closures ordered by (time, sequence); the sequence number
    makes simultaneous events fire in scheduling order, so runs are
    fully deterministic.  One engine owns the master PRNG from which all
    traffic sources split their streams.

    The queue is a binary min-heap the engine owns, stored in three
    parallel arrays of unboxed data: the times (a float array), the
    sequence numbers and an int key naming what to run.  Slot [i]'s
    children are [2i+1] and [2i+2].  A sift moves only immediates, so it
    never takes the write barrier.  A key [k >= 0] is a slot of the
    one-off closure table, written once by {!schedule} and cleared when
    the event pops; a key [k < 0] is the registered handler [lnot k],
    which {!fire} schedules without writing a pointer at all.  An event
    has no record of its own: its handle is its sequence number, and
    cancelling records that number in a set consulted at pop time, for
    a pop whose number lies between the set's least and greatest. *)

open Scotch_util

(** Handle returned by {!schedule}: the event's sequence number. *)
type handle = int

(** A registered handler: its index in the handler table. *)
type handler = int

type t = {
  mutable now : float;
  mutable next_seq : int;
  mutable at : Float.Array.t;
  mutable seq : int array;
  mutable key : int array;
  mutable size : int;
  mutable closures : (unit -> unit) array;  (* one-off closures, by slot *)
  mutable free : int array;  (* a stack of the free closure slots *)
  mutable n_free : int;
  mutable handlers : (unit -> unit) array;
  mutable n_handlers : int;
  cancelled : (int, unit) Hashtbl.t;  (* seqs of cancelled events *)
  mutable cancelled_lo : int;  (* the least and greatest seq in [cancelled] *)
  mutable cancelled_hi : int;  (* (max_int, min_int when empty) *)
  rng : Rng.t;
  mutable processed : int;
  mutable next_user_id : int;
  mutable next_flow_id : int;
  mutable run_end_hooks : (unit -> unit) list;
}

(* What an empty closure slot holds, so a popped closure is not kept
   alive. *)
let noop () = ()

(* Small, so building a network that schedules little stays cheap. *)
let initial_capacity = 16

(** [create ~seed ()] makes an engine at time 0. *)
let create ?(seed = 42) () =
  { now = 0.0; next_seq = 0; at = Float.Array.make initial_capacity 0.0;
    seq = Array.make initial_capacity 0; key = Array.make initial_capacity 0; size = 0;
    closures = [||]; free = [||]; n_free = 0; handlers = [||]; n_handlers = 0;
    cancelled = Hashtbl.create 8; cancelled_lo = max_int; cancelled_hi = min_int;
    rng = Rng.create seed; processed = 0; next_user_id = 0; next_flow_id = 0;
    run_end_hooks = [] }

(** Current simulation time, in seconds. *)
let now t = t.now

(** Master PRNG; call {!Scotch_util.Rng.split} to derive per-source
    streams. *)
let rng t = t.rng

(** Number of events executed so far. *)
let processed t = t.processed

let grow_heap t =
  let cap = 2 * Array.length t.seq in
  let at = Float.Array.make cap 0.0 and seq = Array.make cap 0 and key = Array.make cap 0 in
  Float.Array.blit t.at 0 at 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.key 0 key 0 t.size;
  t.at <- at;
  t.seq <- seq;
  t.key <- key

(* Double the closure table, made on the first {!schedule}; every slot
   is in use, so the new slots become the free stack. *)
let grow_closures t =
  let old = Array.length t.closures in
  let cap = max initial_capacity (2 * old) in
  let closures = Array.make cap noop in
  Array.blit t.closures 0 closures 0 old;
  t.closures <- closures;
  t.free <- Array.init cap (fun i -> cap - 1 - i);
  t.n_free <- cap - old

(* Copy slot [src] into slot [dst]. *)
let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.at dst (Float.Array.unsafe_get t.at src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.key dst (Array.unsafe_get t.key src)

let[@inline] place t i at seq key =
  Float.Array.unsafe_set t.at i at;
  Array.unsafe_set t.seq i seq;
  Array.unsafe_set t.key i key

(* Whether slot [i] fires before slot [j]. *)
let[@inline] before t i j =
  let ai = Float.Array.unsafe_get t.at i and aj = Float.Array.unsafe_get t.at j in
  ai < aj || (ai = aj && Array.unsafe_get t.seq i < Array.unsafe_get t.seq j)

(* Sift a hole up from the end and drop the new event into it.  Its seq
   exceeds every queued one, so on equal times it stays below its
   parent: only a strictly earlier time moves it up. *)
let[@inline] push t at key =
  if t.size = Array.length t.seq then grow_heap t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if at < Float.Array.unsafe_get t.at p then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  place t !i at seq key;
  seq

(* Remove the root: sift a hole down from it and drop the last event
   into it. *)
let pop_root t =
  let n = t.size - 1 in
  t.size <- n;
  let at = Float.Array.unsafe_get t.at n
  and seq = Array.unsafe_get t.seq n
  and key = Array.unsafe_get t.key n in
  if n > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c = if r < n && before t r l then r else l in
        let ca = Float.Array.unsafe_get t.at c in
        if ca < at || (ca = at && Array.unsafe_get t.seq c < seq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    place t !i at seq key
  end

(* Queue the one-off closure [run] at [at], in a free slot. *)
let[@inline] push_closure t at run =
  if t.n_free = 0 then grow_closures t;
  t.n_free <- t.n_free - 1;
  let slot = Array.unsafe_get t.free t.n_free in
  Array.unsafe_set t.closures slot run;
  push t at slot

(** [schedule_at t ~at f] runs [f] at absolute time [at].  Scheduling in
    the past or at NaN raises [Invalid_argument]: a NaN time would sit at
    the root of the queue and block every later event. *)
let schedule_at t ~at run =
  if not (at >= t.now) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %.9f is not at or after current time %.9f" at
         t.now);
  push_closure t at run

(** [schedule t ~delay f] runs [f] after [delay] seconds. *)
let schedule t ~delay run =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative or NaN delay";
  push_closure t (t.now +. delay) run

(** [handler t f] registers [f] for the engine's lifetime. *)
let handler t f =
  let n = t.n_handlers in
  if n = Array.length t.handlers then begin
    let handlers = Array.make (max 8 (2 * n)) noop in
    Array.blit t.handlers 0 handlers 0 n;
    t.handlers <- handlers
  end;
  t.handlers.(n) <- f;
  t.n_handlers <- n + 1;
  n

(** [fire t ~delay h] runs the handler [h] after [delay] seconds. *)
let fire t ~delay (h : handler) =
  if not (delay >= 0.0) then invalid_arg "Engine.fire: negative or NaN delay";
  ignore (push t (t.now +. delay) (lnot h))

(** [fire_at t ~at h] runs the handler [h] at absolute time [at]. *)
let fire_at t ~at (h : handler) =
  if not (at >= t.now) then
    invalid_arg
      (Printf.sprintf "Engine.fire_at: %.9f is not at or after current time %.9f" at t.now);
  ignore (push t at (lnot h))

(** [cancel t h] prevents a scheduled event from running: O(1), the
    event is skipped when it reaches the root. *)
let cancel t (h : handle) =
  Hashtbl.replace t.cancelled h ();
  if h < t.cancelled_lo then t.cancelled_lo <- h;
  if h > t.cancelled_hi then t.cancelled_hi <- h

(* Whether the event [seq] was cancelled, forgetting it if so.  Seqs
   cancelled after their event fired stay until the queue drains here.
   A pop whose seq lies outside [cancelled_lo, cancelled_hi] never gets
   here: while an answered request's expiry waits cancelled, the events
   that pop were mostly scheduled after it, and skip the lookup. *)
let take_cancelled t seq =
  let hit = Hashtbl.mem t.cancelled seq in
  if hit then Hashtbl.remove t.cancelled seq;
  if t.size = 0 then Hashtbl.reset t.cancelled;
  if hit || t.size = 0 then begin
    t.cancelled_lo <- Hashtbl.fold (fun s () lo -> Int.min s lo) t.cancelled max_int;
    t.cancelled_hi <- Hashtbl.fold (fun s () hi -> Int.max s hi) t.cancelled min_int
  end;
  hit

(* What the key [k] runs; a one-off closure's slot is cleared and
   freed. *)
let[@inline] take t k =
  if k < 0 then Array.unsafe_get t.handlers (lnot k)
  else begin
    let run = Array.unsafe_get t.closures k in
    Array.unsafe_set t.closures k noop;
    Array.unsafe_set t.free t.n_free k;
    t.n_free <- t.n_free + 1;
    run
  end

(** [step t] executes the next event; [false] when the queue is empty. *)
let step t =
  if t.size = 0 then false
  else begin
    let at = Float.Array.unsafe_get t.at 0
    and seq = Array.unsafe_get t.seq 0
    and run = take t (Array.unsafe_get t.key 0) in
    pop_root t;
    t.now <- at;
    if seq < t.cancelled_lo || seq > t.cancelled_hi || not (take_cancelled t seq) then begin
      t.processed <- t.processed + 1;
      run ()
    end;
    true
  end

(** [run ?until t] executes events in order until the queue drains or
    simulation time would exceed [until].  When stopped by [until], the
    clock is advanced exactly to [until] and remaining events stay
    queued. *)
let run ?until t =
  (match until with
   | None -> while step t do () done
   | Some limit ->
     while t.size > 0 && Float.Array.unsafe_get t.at 0 <= limit do
       ignore (step t)
     done;
     if limit > t.now then t.now <- limit);
  List.iter (fun f -> f ()) (List.rev t.run_end_hooks)

(** [on_run_end t f] registers [f] to run (in registration order) every
    time {!run} returns — the quiesced-network moment the verification
    hooks lint at.  Hooks must not schedule further events they expect
    this {!run} to execute. *)
let on_run_end t f = t.run_end_hooks <- f :: t.run_end_hooks

(** [every t ~period ?start f] runs [f] every [period] seconds
    starting at [now + start] (default [now + period]).  [start] lets
    periodic tasks sharing a period (heartbeat, stats polling,
    reconciliation) interleave at distinct phases instead of stacking
    on the same instants.  Returns a stop function. *)
let every t ~period ?start f =
  if not (period > 0.0) then invalid_arg "Engine.every: period must be positive";
  let first = Option.value start ~default:period in
  if not (first >= 0.0) then invalid_arg "Engine.every: start must be non-negative";
  let stopped = ref false in
  let rec tick () =
    if not !stopped then begin
      f ();
      ignore (schedule t ~delay:period tick)
    end
  in
  ignore (schedule t ~delay:first tick);
  fun () -> stopped := true

(** Pending event count (cancelled events included until popped). *)
let pending t = t.size

(** Engine-scoped unique small integers, for allocations that must be
    deterministic per run (e.g. traffic sources' ephemeral-port
    windows) rather than global to the process. *)
let fresh_user_id t =
  let i = t.next_user_id in
  t.next_user_id <- i + 1;
  i

(** Flow ids for traffic sources, from 1 up, counted per engine so two
    simulations in one process number their flows alike.  Separate from
    {!fresh_user_id}, which sets the sources' port windows. *)
let fresh_flow_id t =
  t.next_flow_id <- t.next_flow_id + 1;
  t.next_flow_id
