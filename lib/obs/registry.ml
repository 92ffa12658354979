(** The metrics registry: typed counters, pull gauges and histograms
    with label sets, one shared namespace for the whole control plane.

    Handles are resolved {e once}, at component-construction time
    ([Registry.counter] et al. hash the (name, labels) key), and the
    hot-path operations on a handle are plain field stores: {!incr}
    bumps an int cell, {!observe} stores into a pre-allocated batch
    that is binned into the {!Scotch_util.Histogram} on overflow or at
    read time — no allocation, no hashing, no branching on metric
    identity.  A gauge is a closure polled at snapshot time.
    Exposition ({!to_prometheus}, {!samples}) walks the
    registry in a deterministic (name, labels) order, so two seeded
    runs of the simulator produce byte-identical snapshots.

    Registering the same (name, labels) pair again returns the {e same}
    handle (values accumulate); callback gauges ({!gauge_fn}) instead
    replace the closure, so the most recently built network owns
    pull-style metrics like queue depths.  Re-registration with a
    different metric kind is a programming error and raises. *)

open Scotch_util

type labels = (string * string) list

(* Single-field records keep the hot-path stores allocation-free: the
   int cell is an immediate store, and the all-float record gives a
   histogram's running sum an unboxed float field. *)
type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  h : Histogram.t;
  hsum : gauge; (* running sum of observations, for Prometheus [_sum] *)
  pending : float array; (* batched observations, binned on flush *)
  mutable npending : int;
}

(* Observation batch size: the hot path does one array store per
   observe; binning (bounds checks, bin index arithmetic, float sum)
   runs once per batch, or lazily at read time. *)
let batch = 64

type fn_cell = { mutable fn : unit -> float }
type int_fn_cell = { mutable ifn : unit -> int }

type kind =
  | Counter of counter
  | Counter_fn of int_fn_cell
  | Gauge_fn of fn_cell
  | Histogram of histogram

type metric = {
  name : string;
  labels : labels;
  help : string;
  kind : kind;
}

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let clear t = Hashtbl.reset t.tbl

let size t = Hashtbl.length t.tbl

(* Canonical key: name plus label pairs in key order.  '\x00' cannot
   appear in metric or label names, so the key is unambiguous. *)
let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function
  | Counter _ | Counter_fn _ -> "counter"
  | Gauge_fn _ -> "gauge"
  | Histogram _ -> "histogram"

let register t ~help ~labels name make =
  let labels = canon_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some m -> m
  | None ->
    let m = { name; labels; help; kind = make () } in
    Hashtbl.replace t.tbl k m;
    m

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, not a %s" name
       (kind_name existing) wanted)

let counter t ?(help = "") ?(labels = []) name =
  match (register t ~help ~labels name (fun () -> Counter { c = 0 })).kind with
  | Counter c -> c
  | k -> mismatch name k "counter"

(** [counter_fn t name f] re-expresses an existing component ledger on
    the registry: [f] (typically a field read of the component's own
    counters record) is polled at snapshot time, so the hot path is
    untouched.  Re-registration replaces the closure. *)
let counter_fn t ?(help = "") ?(labels = []) name f =
  match (register t ~help ~labels name (fun () -> Counter_fn { ifn = f })).kind with
  | Counter_fn cell -> cell.ifn <- f
  | k -> mismatch name k "counter_fn"

(** [gauge_fn t name f] registers a pull-style gauge: [f] is evaluated
    at snapshot time.  Re-registration replaces the closure (last
    writer wins), so rebuilt networks shadow stale ones. *)
let gauge_fn t ?(help = "") ?(labels = []) name f =
  match (register t ~help ~labels name (fun () -> Gauge_fn { fn = f })).kind with
  | Gauge_fn cell -> cell.fn <- f
  | k -> mismatch name k "gauge_fn"

(** [histogram t ~lo ~hi ~bins name] — fixed-bin histogram over
    [lo, hi) (out-of-range observations land in the under/overflow
    bins).  On re-registration the existing histogram is returned and
    the bounds are ignored. *)
let histogram t ?(help = "") ?(labels = []) ?(lo = 0.0) ?(hi = 1.0) ?(bins = 50) name =
  let make () =
    Histogram
      { h = Histogram.create ~lo ~hi ~bins; hsum = { g = 0.0 };
        pending = Array.make batch 0.0; npending = 0 }
  in
  match (register t ~help ~labels name make).kind with
  | Histogram h -> h
  | k -> mismatch name k "histogram"

(** {1 Hot-path handle operations} *)

let incr c = c.c <- c.c + 1
let counter_value c = c.c

let flush hm =
  for i = 0 to hm.npending - 1 do
    let x = hm.pending.(i) in
    Histogram.add hm.h x;
    hm.hsum.g <- hm.hsum.g +. x
  done;
  hm.npending <- 0

let observe hm x =
  if hm.npending >= batch then flush hm;
  hm.pending.(hm.npending) <- x;
  hm.npending <- hm.npending + 1

let quantile_opt hm p = flush hm; Histogram.quantile_opt hm.h p

(** {1 Snapshotting} *)

type sample = {
  s_name : string;
  s_labels : labels;
  s_value : float; (* histograms report their observation count *)
}

let sorted_metrics t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

let value_of m =
  match m.kind with
  | Counter c -> float_of_int c.c
  | Counter_fn cell -> float_of_int (cell.ifn ())
  | Gauge_fn cell -> cell.fn ()
  | Histogram hm -> flush hm; float_of_int (Histogram.count hm.h)

(** Every metric as a (deterministically ordered) flat sample list —
    the programmatic snapshot tests and summary tables read. *)
let samples t =
  List.map
    (fun m -> { s_name = m.name; s_labels = m.labels; s_value = value_of m })
    (sorted_metrics t)

(** {1 Prometheus text exposition} *)

let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | ch -> Buffer.add_char b ch)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
    ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Cumulative Prometheus buckets: everything at or below each bin's
   upper edge, underflow included from the first bucket on. *)
let histogram_lines buf name labels hm =
  flush hm;
  let h = hm.h in
  let ls ~extra =
    render_labels (canon_labels (extra @ labels))
  in
  let acc = ref (Histogram.underflow h) in
  for i = 0 to Histogram.nbins h - 1 do
    acc := !acc + Histogram.bin_count h i;
    let le = Histogram.bin_center h i +. (Histogram.bin_width h /. 2.0) in
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket%s %d\n" name (ls ~extra:[ ("le", float_str le) ]) !acc)
  done;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket%s %d\n" name (ls ~extra:[ ("le", "+Inf") ]) (Histogram.count h));
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels) (float_str hm.hsum.g));
  Buffer.add_string buf
    (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) (Histogram.count h))

(** Prometheus text-format exposition of the whole registry, metrics
    sorted by (name, labels), HELP/TYPE headers once per family. *)
let to_prometheus t =
  let buf = Buffer.create 4096 in
  let last_name = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_name then begin
        last_name := m.name;
        if m.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.kind))
      end;
      match m.kind with
      | Histogram hm -> histogram_lines buf m.name m.labels hm
      | _ ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" m.name (render_labels m.labels)
             (float_str (value_of m))))
    (sorted_metrics t);
  Buffer.contents buf

(** {1 JSON string escaping, shared with [Trace]} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
