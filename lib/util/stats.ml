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
  type t = {
    window : float;
    events : float Queue.t;
    mutable total : int;
  }

  let create ~window =
    if window <= 0.0 then invalid_arg "Rate_meter.create: window must be positive";
    { window; events = Queue.create (); total = 0 }

  let expire t ~now =
    let cutoff = now -. t.window in
    let rec go () =
      match Queue.peek_opt t.events with
      | Some ts when ts <= cutoff ->
        ignore (Queue.pop t.events);
        go ()
      | _ -> ()
    in
    go ()

  (** [tick t ~now] records one event at time [now]. *)
  let tick t ~now =
    expire t ~now;
    Queue.push now t.events;
    t.total <- t.total + 1

  (** [rate t ~now] is the event rate (per second) over the last window. *)
  let rate t ~now =
    expire t ~now;
    float_of_int (Queue.length t.events) /. t.window

  (** [total t] is the all-time event count. *)
  let total t = t.total
end
