(** Fixed-bin histogram over a bounded range, with overflow/underflow
    bins.  Used for delay distributions (Fig. 14-style experiments). *)

type t = {
  lo : float;
  hi : float;
  bins : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable count : int;
}

(** [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal-width bins. *)
let create ~lo ~hi ~bins =
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  { lo; hi; bins = Array.make bins 0; underflow = 0; overflow = 0; count = 0 }

let nbins t = Array.length t.bins

let bin_width t = (t.hi -. t.lo) /. float_of_int (nbins t)

(** [add t x] records one observation. *)
let add t x =
  t.count <- t.count + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. bin_width t) in
    let i = Stdlib.min i (nbins t - 1) in
    t.bins.(i) <- t.bins.(i) + 1
  end

let count t = t.count

let underflow t = t.underflow
let overflow t = t.overflow

(** [bin_count t i] is the number of observations in bin [i]. *)
let bin_count t i = t.bins.(i)

(** [bin_center t i] is the midpoint of bin [i]. *)
let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. bin_width t)

(** Approximate quantile by scanning the CDF (resolution = bin width);
    [None] when the histogram is empty. *)
let quantile_opt t p =
  if t.count = 0 then None
  else begin
    let target = p *. float_of_int t.count in
    let acc = ref (float_of_int t.underflow) in
    let result = ref t.hi in
    (try
       for i = 0 to nbins t - 1 do
         acc := !acc +. float_of_int t.bins.(i);
         if !acc >= target then begin
           result := bin_center t i;
           raise Exit
         end
       done
     with Exit -> ());
    Some !result
  end
