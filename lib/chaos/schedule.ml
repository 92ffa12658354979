(** A chaos schedule: one self-contained, replayable trial.

    A schedule bundles everything a run needs to be reproduced
    bit-for-bit: the seed (workload randomness), the deployment
    configuration knobs the chaos tree exposes (reliable layer,
    tenancy), the background workload shape, the oracle tolerance it
    was judged against, and the fault list itself.  The chaos search
    generates these ({!Gen}), the runner executes them, and the
    shrinker rewrites their fault lists — so the fault list, not a
    generator seed, is the source of truth.

    {2 Wire format}

    [print]/[parse] implement a line-based text format (the body of a
    repro file).  Floats are written as [%h] hex literals, so
    [parse (print t) = Ok t] holds {e exactly} — the round-trip is a
    qcheck property in [test/test_chaos.ml], and it is what makes a
    replayed repro bit-identical to the run that produced it. *)

open Scotch_faults

type workload = {
  duration : float;  (* seconds of background traffic *)
  base_rate : float; (* steady per-source launch rate, flows/s *)
  flash_multiplier : float;
      (* mid-run flash-crowd factor over the middle half of the
         window; 1.0 = flat load *)
  sources : int;     (* concurrent client sources *)
}

type tolerance = {
  base_loss : float;
      (* admitted-flow loss fraction allowed even with no faults *)
  exposure_loss : float;
      (* extra allowed loss per unit of severity-weighted exposure *)
  max_loss : float;  (* hard cap on the total allowance *)
}

type cfg = {
  reconcile : bool; (* installs through the reliable layer (PR 3) *)
  tenancy : bool;   (* two-tenant deployment with budgets (PR 8) *)
  tolerance : tolerance;
}

type t = {
  seed : int;
  cfg : cfg;
  workload : workload;
  faults : Fault.t list; (* sorted by Fault.compare *)
}

let make ~seed ~cfg ~workload faults =
  { seed; cfg; workload; faults = List.sort Fault.compare faults }

(** [with_faults t faults] — the shrinker's rewrite: same trial, a
    subset of the faults. *)
let with_faults t faults = { t with faults = List.sort Fault.compare faults }

let plan t = Plan.of_list t.faults

let equal a b = a = b

let default_tolerance =
  { base_loss = 0.02; exposure_loss = 0.80; max_loss = 0.60 }

let default_workload =
  { duration = 8.0; base_rate = 25.0; flash_multiplier = 3.0; sources = 3 }

let default_cfg =
  { reconcile = false; tenancy = false; tolerance = default_tolerance }

(* ------------------------------------------------------------------ *)
(* Wire format *)

let h = Printf.sprintf "%h"

let kind_tag = function
  | Fault.Vswitch_crash -> "crash"
  | Fault.Ofa_slowdown _ -> "slowdown"
  | Fault.Ofa_stall -> "stall"
  | Fault.Channel_delay _ -> "chan-delay"
  | Fault.Channel_drop _ -> "chan-drop"
  | Fault.Channel_dup _ -> "chan-dup"
  | Fault.Channel_reorder _ -> "chan-reorder"
  | Fault.Link_down _ -> "link-down"
  | Fault.Stats_outage -> "stats-outage"
  | Fault.Vswitch_degrade _ -> "degrade"
  | Fault.Controller_pause -> "pause"
  | Fault.Tenant_flood _ -> "flood"

let fault_line (f : Fault.t) =
  let base =
    Printf.sprintf "fault %s at %s dur %s target %d" (kind_tag f.Fault.kind)
      (h f.Fault.at) (h f.Fault.duration) f.Fault.target
  in
  match f.Fault.kind with
  | Fault.Vswitch_crash | Fault.Ofa_stall | Fault.Stats_outage | Fault.Controller_pause ->
    base
  | Fault.Ofa_slowdown v | Fault.Channel_delay v | Fault.Channel_drop v
  | Fault.Channel_dup v | Fault.Channel_reorder v | Fault.Vswitch_degrade v
  | Fault.Tenant_flood v ->
    Printf.sprintf "%s p %s" base (h v)
  | Fault.Link_down port -> Printf.sprintf "%s port %d" base port

let print t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "scotch-chaos-schedule v1";
  line "seed %d" t.seed;
  line "cfg reconcile %b tenancy %b" t.cfg.reconcile t.cfg.tenancy;
  line "tolerance base %s exposure %s max %s" (h t.cfg.tolerance.base_loss)
    (h t.cfg.tolerance.exposure_loss) (h t.cfg.tolerance.max_loss);
  line "workload duration %s rate %s flash %s sources %d" (h t.workload.duration)
    (h t.workload.base_rate) (h t.workload.flash_multiplier) t.workload.sources;
  List.iter (fun f -> line "%s" (fault_line f)) t.faults;
  line "end";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* [print] never writes NaN, and NaN would pass every range check *)
let float_of s =
  match float_of_string_opt s with
  | Some v when not (Float.is_nan v) -> v
  | _ -> fail "bad float %S" s

let int_of s =
  match int_of_string_opt s with Some v -> v | None -> fail "bad int %S" s

let bool_of s =
  match bool_of_string_opt s with Some v -> v | None -> fail "bad bool %S" s

(** Key-value tail of a line: [k1 v1 k2 v2 ...] -> lookup. *)
let kv words =
  let rec go = function
    | [] -> []
    | [ k ] -> fail "dangling key %S" k
    | k :: v :: rest -> (k, v) :: go rest
  in
  let pairs = go words in
  fun key ->
    match List.assoc_opt key pairs with
    | Some v -> v
    | None -> fail "missing field %S" key

let parse_fault words =
  match words with
  | tag :: rest ->
    let get = kv rest in
    let at = float_of (get "at") in
    let duration = float_of (get "dur") in
    let target = int_of (get "target") in
    let p () = float_of (get "p") in
    (match tag with
    | "crash" -> Fault.vswitch_crash ~at ~duration target
    | "slowdown" -> Fault.ofa_slowdown ~at ~duration ~factor:(p ()) target
    | "stall" -> Fault.ofa_stall ~at ~duration target
    | "chan-delay" -> Fault.channel_delay ~at ~duration ~extra:(p ()) target
    | "chan-drop" -> Fault.channel_drop ~at ~duration ~probability:(p ()) target
    | "chan-dup" -> Fault.channel_dup ~at ~duration ~probability:(p ()) target
    | "chan-reorder" -> Fault.channel_reorder ~at ~duration ~probability:(p ()) target
    | "link-down" -> Fault.link_down ~at ~duration ~port:(int_of (get "port")) target
    | "stats-outage" -> Fault.stats_outage ~at ~duration
    | "degrade" -> Fault.vswitch_degrade ~at ~duration ~peak:(p ()) target
    | "pause" -> Fault.controller_pause ~at ~duration
    | "flood" -> Fault.tenant_flood ~at ~duration ~rate:(p ()) target
    | _ -> fail "unknown fault kind %S" tag)
  | [] -> fail "empty fault line"

let words_of line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_lines lines =
  match lines with
  | header :: rest when String.trim header = "scotch-chaos-schedule v1" ->
    let seed = ref None and cfg = ref None and tol = ref None and wl = ref None in
    let faults = ref [] and ended = ref false in
    List.iter
      (fun line ->
        if not !ended then
          match words_of line with
          | [] -> ()
          | [ "end" ] -> ended := true
          | "seed" :: [ v ] -> seed := Some (int_of v)
          | "cfg" :: rest ->
            let get = kv rest in
            cfg := Some (bool_of (get "reconcile"), bool_of (get "tenancy"))
          | "tolerance" :: rest ->
            let get = kv rest in
            tol :=
              Some
                { base_loss = float_of (get "base");
                  exposure_loss = float_of (get "exposure");
                  max_loss = float_of (get "max") }
          | "workload" :: rest ->
            let get = kv rest in
            wl :=
              Some
                { duration = float_of (get "duration");
                  base_rate = float_of (get "rate");
                  flash_multiplier = float_of (get "flash");
                  sources = int_of (get "sources") }
          | "fault" :: rest -> faults := parse_fault rest :: !faults
          | w :: _ -> fail "unknown line %S" w)
      rest;
    if not !ended then fail "missing \"end\" line";
    let req name = function Some v -> v | None -> fail "missing %S line" name in
    let reconcile, tenancy = req "cfg" !cfg in
    { seed = req "seed" !seed;
      cfg = { reconcile; tenancy; tolerance = req "tolerance" !tol };
      workload = req "workload" !wl;
      faults = List.sort Fault.compare (List.rev !faults) }
  | header :: _ -> fail "bad header %S" header
  | [] -> fail "empty schedule"

let parse s =
  match parse_lines (String.split_on_char '\n' s) with
  | t -> Ok t
  | exception Bad msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let pp fmt t =
  Format.fprintf fmt "schedule[seed %d, %d faults, %.1f s%s%s]" t.seed
    (List.length t.faults) t.workload.duration
    (if t.cfg.reconcile then ", reconcile" else "")
    (if t.cfg.tenancy then ", tenancy" else "")
