(** Per-vswitch packet sampler (the NetFlow-style measurement tap).

    Sits on the vswitch's datapath forward path: each packet on the
    sampler's {e duty} (see below) flips a seeded deterministic coin at
    the configured rate; hits are counted into a bounded {!Sketch}.
    The controller drains a window with {!report} at each telemetry
    poll, so channel cost is one small top-k digest per vswitch per
    poll instead of the full per-flow stats dump.

    Duty: on the Scotch overlay every flow's packets cross their entry
    vswitch exactly once (the physical switch's select group pins a
    flow to one uplink), and may cross a second {e cover} vswitch on
    the mesh hop.  Sampling only uplink-tunnel arrivals therefore
    observes every overlay packet exactly once with no cross-vswitch
    double counting, and spreads monitoring duty across the pool in
    exactly the select groups' proportions — the {!Assignment} module
    tracks those shares and tells each sampler which tunnels are its
    duty.  A sampler samples everything it is offered ([Any_port])
    until its first {!set_duty_uplinks}.

    Determinism: the coin stream is seeded from [(seed, dpid)], so two
    same-seed runs sample identical packet sets and produce identical
    report digests (the chained {!digest} is the test oracle). *)

open Scotch_packet
open Scotch_util

type duty = Any_port | Uplinks of (int, unit) Hashtbl.t

type report = {
  r_rate : float;    (* sampling probability in force this window *)
  r_window : float;  (* seconds covered *)
  r_seen : int;      (* duty packets offered *)
  r_sampled : int;   (* coin hits *)
  r_records : (Flow_key.t * int) list; (* sampled counts, heaviest first *)
}

type t = {
  rng : Rng.t;
  rate : float;
  sketch : Sketch.t;
  mutable enabled : bool;
  mutable duty : duty;
  mutable window_start : float;
  mutable seen : int;        (* lifetime duty packets *)
  mutable sampled : int;     (* lifetime coin hits *)
  mutable win_seen : int;
  mutable win_sampled : int;
  mutable reports : int;
  mutable digest : string;   (* chained over report canonical forms *)
}

let create ?(topk = 16) ~seed ~dpid ~rate () =
  if rate <= 0.0 || rate > 1.0 then invalid_arg "Sampler.create: rate must be in (0,1]";
  let t =
    { rng = Rng.create (seed lxor (dpid * 0x9E3779B9) lxor 0x7E1E);
      rate; sketch = Sketch.create ~capacity:topk; enabled = true; duty = Any_port;
      window_start = 0.0; seen = 0; sampled = 0; win_seen = 0; win_sampled = 0; reports = 0;
      digest = "" }
  in
  (* re-express the sampler ledger on the metrics registry (pulled at
     snapshot time; the offer hot path is untouched) *)
  let module O = Scotch_obs.Obs in
  let labels = [ ("dpid", string_of_int dpid) ] in
  O.counter_fn ~help:"Duty packets offered to the telemetry sampler" ~labels
    "scotch_telemetry_packets_total" (fun () -> t.seen);
  O.counter_fn ~help:"Packets sampled into the telemetry sketch" ~labels
    "scotch_telemetry_sampled_total" (fun () -> t.sampled);
  O.counter_fn ~help:"Telemetry report windows drained" ~labels
    "scotch_telemetry_reports_total" (fun () -> t.reports);
  t

let set_enabled t on = t.enabled <- on
let enabled t = t.enabled
let seen t = t.seen
let sampled t = t.sampled
let reports t = t.reports

(** Restrict duty to packets arriving on the given uplink tunnel ids
    (the flows whose entry hop this vswitch is). *)
let set_duty_uplinks t tunnel_ids =
  let h = Hashtbl.create (Stdlib.max 4 (List.length tunnel_ids)) in
  List.iter (fun tid -> Hashtbl.replace h tid ()) tunnel_ids;
  t.duty <- Uplinks h

let on_duty t ~tunnel_id =
  match t.duty with
  | Any_port -> true
  | Uplinks h -> (
    match tunnel_id with None -> false | Some tid -> Hashtbl.mem h tid)

(** [offer t ~tunnel_id key_of] is the forward-path tap: a cheap duty
    check and one coin flip per duty packet; the flow key is computed
    (via [key_of]) only on a sampling hit. *)
let offer t ~tunnel_id key_of =
  if t.enabled && on_duty t ~tunnel_id then begin
    t.seen <- t.seen + 1;
    t.win_seen <- t.win_seen + 1;
    if Rng.bernoulli t.rng t.rate then begin
      t.sampled <- t.sampled + 1;
      t.win_sampled <- t.win_sampled + 1;
      Sketch.touch t.sketch (key_of ())
    end
  end

let canonical_of_report (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%.9g|%.9g|%d|%d|" r.r_rate r.r_window r.r_seen r.r_sampled);
  List.iter
    (fun (k, c) -> Buffer.add_string b (Printf.sprintf "%s=%d;" (Flow_key.to_string k) c))
    r.r_records;
  Buffer.contents b

(** [report t ~now] drains the current window: returns the top-k
    sampled counts and resets the sketch.  Chains the report into the
    determinism digest. *)
let report t ~now =
  let window = now -. t.window_start in
  let records =
    List.map (fun (e : Sketch.entry) -> (e.Sketch.e_key, e.Sketch.e_count))
      (Sketch.entries t.sketch)
  in
  let r =
    { r_rate = t.rate; r_window = window; r_seen = t.win_seen; r_sampled = t.win_sampled;
      r_records = records }
  in
  t.reports <- t.reports + 1;
  t.digest <- Digest.to_hex (Digest.string (t.digest ^ canonical_of_report r));
  Sketch.clear t.sketch;
  t.win_seen <- 0;
  t.win_sampled <- 0;
  t.window_start <- now;
  r

(** Chained digest over every report drained so far — byte-identical
    across two same-seed runs. *)
let digest t = t.digest
