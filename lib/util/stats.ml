(** Online statistics: windowed rate meters and percentile estimation
    over stored samples. *)

(** {1 Sample sets}

    Stores every sample; supports exact percentiles.  Meant for
    experiment-sized data (up to a few million points). *)

module Samples = struct
  type t = { mutable data : float array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let add t x =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ndata = Array.make (Stdlib.max 64 (cap * 2)) 0.0 in
      Array.blit t.data 0 ndata 0 t.size;
      t.data <- ndata
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1

  let count t = t.size

  let mean t =
    if t.size = 0 then nan
    else begin
      let s = ref 0.0 in
      for i = 0 to t.size - 1 do s := !s +. t.data.(i) done;
      !s /. float_of_int t.size
    end

  (** [percentile t p] with [p] in [0,1], linear interpolation between
      closest ranks.  Raises [Invalid_argument] on an empty set. *)
  let percentile t p =
    if t.size = 0 then invalid_arg "Samples.percentile: empty";
    if p < 0.0 || p > 1.0 then invalid_arg "Samples.percentile: p out of range";
    let sorted = Array.sub t.data 0 t.size in
    Array.sort compare sorted;
    let rank = p *. float_of_int (t.size - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end

  let median t = percentile t 0.5
end

(** {1 Windowed rate meter}

    Counts events within a sliding window of fixed duration; [rate] is
    events per second over the window.  The controller's congestion
    monitor uses this to estimate Packet-In rates (§4.2 of the paper). *)

module Rate_meter = struct
  (* The window's timestamps, oldest first, in a ring: [len] of them
     from slot [head] on, wrapping.  The capacity is 0 or a power of
     two, grown on demand, so a meter that is never ticked holds no
     buffer and a busy one stops allocating once it fits its window. *)
  type t = {
    window : float;
    mutable ring : Float.Array.t;
    mutable head : int;
    mutable len : int;
    mutable total : int;
  }

  let create ~window =
    if window <= 0.0 then invalid_arg "Rate_meter.create: window must be positive";
    { window; ring = Float.Array.create 0; head = 0; len = 0; total = 0 }

  let expire t ~now =
    let cutoff = now -. t.window in
    let mask = Float.Array.length t.ring - 1 in
    while t.len > 0 && Float.Array.unsafe_get t.ring t.head <= cutoff do
      t.head <- (t.head + 1) land mask;
      t.len <- t.len - 1
    done

  (* Double the ring, unwrapping it so the oldest timestamp is slot 0. *)
  let grow t =
    let cap = Float.Array.length t.ring in
    let ring = Float.Array.create (Stdlib.max 8 (2 * cap)) in
    for i = 0 to t.len - 1 do
      Float.Array.unsafe_set ring i (Float.Array.unsafe_get t.ring ((t.head + i) land (cap - 1)))
    done;
    t.ring <- ring;
    t.head <- 0

  (** [tick t ~now] records one event at time [now]. *)
  let tick t ~now =
    expire t ~now;
    if t.len = Float.Array.length t.ring then grow t;
    let mask = Float.Array.length t.ring - 1 in
    Float.Array.unsafe_set t.ring ((t.head + t.len) land mask) now;
    t.len <- t.len + 1;
    t.total <- t.total + 1

  (** [rate t ~now] is the event rate (per second) over the last window. *)
  let rate t ~now =
    expire t ~now;
    float_of_int t.len /. t.window

  (** [total t] is the all-time event count. *)
  let total t = t.total
end
