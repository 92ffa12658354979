(** Reliable control-channel layer: barrier-acked transactional
    installs with retry/backoff, plus an anti-entropy reconciler.

    The base controller treats the control channel as lossless, but
    Scotch's premise (§4 of the paper) is that the control path is the
    fragile, scarce resource: channel drops, OFA stalls and vswitch
    crashes silently diverge controller intent from actual switch
    state.  This layer closes the loop in three stages:

    {ol
    {- {b Transactions}: batches of Flow/Group-mods are followed by a
       Barrier_request tracked by xid, with a bounded per-switch window
       of outstanding transactions.  A barrier reply proves the agent
       served everything queued before it.}
    {- {b Retry with backoff}: a barrier that misses its deadline is
       retried — payloads re-sent (Flow_mod ADD is an idempotent
       upsert) — under deterministic exponential backoff with jitter.
       A transaction that exhausts its retry budget flips the switch to
       [Degraded]; the first subsequent ack flips it back to
       [Healthy].  Transactions to a switch the heartbeat has declared
       dead are parked: the full resync at re-aliveness supersedes
       them.}
    {- {b Anti-entropy}: a periodic engine task reads flow and group
       stats back from each idle switch and diffs them against the
       per-switch {!Intent} store with {!Intent.diff} (the verifier's
       Divergence invariant calls the same function) — re-installing
       missing durable rules, deleting orphans the controller owns (by
       cookie), re-asserting groups whose type or buckets drifted,
       deleting foreign groups, and pruning intent entries for
       ephemeral rules the switch legitimately expired.  A switch that
       returns from the dead gets a full-table resync instead of a
       diff.}}

    Divergence windows (first detection → clean diff) and every repair
    are recorded in a reconciliation ledger with a deterministic
    digest, mirroring the fault ledger's bit-identity discipline. *)

open Scotch_openflow
module C = Scotch_controller.Controller
module Engine = Scotch_sim.Engine

type health = Healthy | Degraded

(** Max outstanding transactions per switch. *)
let window = 4

(** Seconds to wait for the barrier ack. *)
let barrier_deadline = 0.25

(** Attempts beyond which the switch degrades. *)
let retry_budget = 3

(** Period of the reconciler timer, s. *)
let reconcile_interval = 0.5

(** Phase offset of the reconciler timer, s. *)
let reconcile_start = 0.25

(** Seconds to wait for stats replies. *)
let stats_deadline = 0.5

(** Ignore rules/intents younger than this, s. *)
let repair_grace = 0.75

type txn = {
  tid : int;
  payloads : Of_msg.payload list;
  mutable attempts : int; (* completed, unacked flights *)
  created : float; (* enqueue time — start of the barrier-ack span *)
}

type swstate = {
  handle : C.sw;
  intents : Intent.t;
  mutable health : health;
  mutable degraded_since : float;
  mutable outstanding : int;
  waiting : txn Queue.t;
  mutable needs_resync : bool;
  mutable diverged_since : float option; (* first unrepaired detection *)
  mutable stats_inflight : bool;
}

type stats = {
  mutable txns_sent : int;
  mutable txns_acked : int;
  mutable txns_parked : int;
  mutable retries : int;
  mutable repairs_missing : int;
  mutable repairs_orphan : int;
  mutable repairs_group : int;
  mutable resyncs : int;
  mutable degraded_transitions : int;
  mutable degraded_seconds : float;
}

type event =
  | Repair of { missing : int; orphans : int; group_fixes : int }
  | Resync
  | Converged of float (* closed divergence window, seconds *)
  | Degraded_enter
  | Degraded_exit of float (* seconds spent degraded *)
  | Parked of int (* transactions abandoned at a dead switch *)

type record = {
  id : int;
  at : float;
  dpid : int;
  event : event;
}

type t = {
  ctrl : C.t;
  backoff : Backoff.t;
  owned_cookies : Of_types.cookie list; (* cookies whose orphans we may delete *)
  switches : (int, swstate) Hashtbl.t;
  mutable next_tid : int;
  stats : stats;
  mutable windows : float list; (* closed divergence windows, newest first *)
  mutable records : record list; (* newest first *)
  mutable next_record_id : int;
  mutable started : bool; (* the reconciler loop is scheduled *)
  mutable on_intent : (int -> unit) option;
      (* verifier tap: fired with the dpid after that switch's intent
         store changed (a transaction's records, a forgotten expiry) *)
  divergence_h : Scotch_obs.Registry.histogram;
      (* closed divergence windows (virtual seconds); obs-gated *)
}

let create ~seed ~owned_cookies ctrl =
  let t =
    { ctrl; backoff = Backoff.create ~seed (); owned_cookies; switches = Hashtbl.create 16;
      next_tid = 0;
      stats =
        { txns_sent = 0; txns_acked = 0; txns_parked = 0; retries = 0; repairs_missing = 0;
          repairs_orphan = 0; repairs_group = 0; resyncs = 0; degraded_transitions = 0;
          degraded_seconds = 0.0 };
      windows = []; records = []; next_record_id = 0; started = false;
      on_intent = None;
      divergence_h =
        Scotch_obs.Obs.histogram ~help:"Closed intent/device divergence windows (virtual s)"
          ~lo:0.0 ~hi:5.0 ~bins:50 "scotch_reliable_divergence_window_seconds" }
  in
  (* re-express the transaction/repair ledger on the registry *)
  let module O = Scotch_obs.Obs in
  let s = t.stats in
  O.counter_fn ~help:"Transactions enqueued" "scotch_reliable_txns_sent_total"
    (fun () -> s.txns_sent);
  O.counter_fn ~help:"Barrier-acked transactions" "scotch_reliable_txns_acked_total"
    (fun () -> s.txns_acked);
  O.counter_fn ~help:"Transactions parked at dead switches" "scotch_reliable_txns_parked_total"
    (fun () -> s.txns_parked);
  O.counter_fn ~help:"Barrier deadline misses retried" "scotch_reliable_retries_total"
    (fun () -> s.retries);
  O.counter_fn ~help:"Missing durable rules re-installed" "scotch_reliable_repairs_missing_total"
    (fun () -> s.repairs_missing);
  O.counter_fn ~help:"Owned orphan rules deleted" "scotch_reliable_repairs_orphan_total"
    (fun () -> s.repairs_orphan);
  O.counter_fn ~help:"Group bucket fixes" "scotch_reliable_repairs_group_total"
    (fun () -> s.repairs_group);
  O.counter_fn ~help:"Full-table resyncs" "scotch_reliable_resyncs_total"
    (fun () -> s.resyncs);
  O.counter_fn ~help:"Healthy-to-degraded transitions"
    "scotch_reliable_degraded_transitions_total" (fun () -> s.degraded_transitions);
  t

let owned_cookies t = t.owned_cookies
let stats t = t.stats
let engine t = C.engine t.ctrl
let now t = Engine.now (engine t)

let log t ss event =
  let r = { id = t.next_record_id; at = now t; dpid = ss.handle.C.dpid; event } in
  t.next_record_id <- t.next_record_id + 1;
  t.records <- r :: t.records

(** {1 Registration and observability} *)

let register_switch t (sw : C.sw) =
  if not (Hashtbl.mem t.switches sw.C.dpid) then
    Hashtbl.replace t.switches sw.C.dpid
      { handle = sw; intents = Intent.create (); health = Healthy; degraded_since = 0.0;
        outstanding = 0; waiting = Queue.create (); needs_resync = false;
        diverged_since = None; stats_inflight = false }

let state t dpid = Hashtbl.find_opt t.switches dpid

let state_exn fn t dpid =
  match state t dpid with
  | Some ss -> ss
  | None -> invalid_arg (Printf.sprintf "Reliable.%s: unregistered dpid %d" fn dpid)

let intent_of t dpid = Option.map (fun ss -> ss.intents) (state t dpid)

let dpids t =
  Hashtbl.fold (fun d _ acc -> d :: acc) t.switches [] |> List.sort compare

let outstanding t dpid =
  match state t dpid with
  | Some ss -> ss.outstanding + Queue.length ss.waiting
  | None -> 0

(** No queued or in-flight transactions, no pending resync, and no
    detected-but-unrepaired divergence anywhere. *)
let converged t =
  Hashtbl.fold
    (fun _ ss acc ->
      acc && ss.outstanding = 0 && Queue.is_empty ss.waiting && (not ss.needs_resync)
      && ss.diverged_since = None)
    t.switches true

let divergence_windows t = List.rev t.windows

let records t = List.rev t.records

(** {1 Transactions} *)

let intent_changed t ss = match t.on_intent with None -> () | Some f -> f ss.handle.C.dpid

let record_payload t ss payload =
  match payload with
  | Of_msg.Flow_mod fm -> Intent.record_flow_mod ss.intents ~now:(now t) fm
  | Of_msg.Group_mod gm -> Intent.record_group_mod ss.intents ~now:(now t) gm
  | _ -> invalid_arg "Reliable.transaction: only Flow_mod/Group_mod payloads are transactional"

let rec pump t ss =
  if ss.outstanding < window then begin
    match Queue.take_opt ss.waiting with
    | None -> ()
    | Some txn ->
      ss.outstanding <- ss.outstanding + 1;
      fly t ss txn;
      pump t ss
  end

and fly t ss txn =
  List.iter (fun p -> C.send t.ctrl ss.handle p) txn.payloads;
  C.request ~deadline:barrier_deadline
    ~on_timeout:(fun () -> on_timeout t ss txn)
    t.ctrl ss.handle Of_msg.Barrier_request
    (fun _reply -> on_ack t ss txn)

and on_ack t ss txn =
  t.stats.txns_acked <- t.stats.txns_acked + 1;
  ss.outstanding <- ss.outstanding - 1;
  if Scotch_obs.Obs.is_enabled () then
    Scotch_obs.Obs.span ~name:"reliable.txn" ~cat:"reliable" ~ts:txn.created
      ~dur:(now t -. txn.created) ~tid:ss.handle.C.dpid
      ~args:[ ("attempts", string_of_int (txn.attempts + 1)) ];
  if ss.health = Degraded then begin
    let dur = now t -. ss.degraded_since in
    t.stats.degraded_seconds <- t.stats.degraded_seconds +. dur;
    ss.health <- Healthy;
    log t ss (Degraded_exit dur)
  end;
  pump t ss

and park t ss =
  (* the heartbeat declared this switch dead: retrying is pointless,
     and the full resync fired at re-aliveness supersedes anything the
     transaction carried (durable intents are resent; ephemeral rules
     would have expired during the outage anyway) *)
  t.stats.txns_parked <- t.stats.txns_parked + 1;
  ss.needs_resync <- true;
  ss.outstanding <- ss.outstanding - 1;
  log t ss (Parked 1);
  pump t ss

and on_timeout t ss txn =
  if not ss.handle.C.alive then park t ss
  else begin
    t.stats.retries <- t.stats.retries + 1;
    txn.attempts <- txn.attempts + 1;
    if Scotch_obs.Obs.is_enabled () then
      Scotch_obs.Obs.instant ~name:"reliable.retry" ~cat:"reliable" ~ts:(now t)
        ~tid:ss.handle.C.dpid
        ~args:[ ("attempt", string_of_int txn.attempts) ];
    if txn.attempts > retry_budget && ss.health = Healthy then begin
      ss.health <- Degraded;
      ss.degraded_since <- now t;
      t.stats.degraded_transitions <- t.stats.degraded_transitions + 1;
      log t ss Degraded_enter
    end;
    let delay = Backoff.delay t.backoff ~salt:txn.tid ~attempt:txn.attempts () in
    Engine.schedule (engine t) ~delay (fun () ->
        if ss.handle.C.alive then fly t ss txn else park t ss)
  end

let enqueue t ss payloads =
  let txn = { tid = t.next_tid; payloads; attempts = 0; created = now t } in
  t.next_tid <- t.next_tid + 1;
  t.stats.txns_sent <- t.stats.txns_sent + 1;
  Queue.push txn ss.waiting;
  pump t ss

(** [transaction t sw payloads] records the intent of every payload and
    ships them as one barrier-acked transaction. *)
let transaction t (sw : C.sw) payloads =
  if payloads <> [] then begin
    let ss = state_exn "transaction" t sw.C.dpid in
    List.iter (record_payload t ss) payloads;
    intent_changed t ss;
    enqueue t ss payloads
  end

(** Attach (or detach, with [None]) an intent observer, fired with the
    dpid after that switch's intent store changed — the incremental
    verifier's cue to re-diff it.  [None] (the default) costs one
    [match] per change. *)
let set_on_intent t f = t.on_intent <- f

(** {1 Full resync (switch recovery)} *)

(** Mark a switch for a full-table resync at the next reconciler tick —
    wired to the controller's [switch_alive] hook: a switch returning
    from the dead may have rebooted empty. *)
let request_resync t dpid =
  match state t dpid with None -> () | Some ss -> ss.needs_resync <- true

let resync t ss =
  ss.needs_resync <- false;
  t.stats.resyncs <- t.stats.resyncs + 1;
  if ss.diverged_since = None then ss.diverged_since <- Some (now t);
  log t ss Resync;
  (* groups first (rules may reference them), delete-then-add so stale
     buckets cannot survive an ADD that errors with Group_exists *)
  let group_payloads =
    List.concat_map
      (fun (g : Intent.group) ->
        [ Of_msg.Group_mod (Of_msg.Group_mod.delete ~group_id:g.Intent.group_id);
          Of_msg.Group_mod (Intent.group_mod Of_msg.Group_mod.Add g) ])
      (Intent.groups ss.intents)
  in
  let rule_payloads =
    List.map
      (fun r -> Of_msg.Flow_mod (Intent.flow_mod_of_rule r))
      (Intent.durable_rules ss.intents)
  in
  match group_payloads @ rule_payloads with
  | [] -> ()
  | payloads -> enqueue t ss payloads

(** {1 Anti-entropy reconciliation} *)

let diff_and_repair t ss (flow_stats : Of_msg.Stats.flow_stat list)
    (group_descs : Of_msg.Stats.group_desc list) =
  let tnow = now t in
  let { Intent.groups; missing; expired; orphans } =
    Intent.diff ss.intents ~flow_stats ~group_descs ~now:tnow ~grace:repair_grace
      ~owned:t.owned_cookies
  in
  (* the switch may expire ephemeral rules on its own: acknowledge it *)
  if expired <> [] then begin
    List.iter (Intent.forget_rule ss.intents) expired;
    intent_changed t ss
  end;
  let group_fixes =
    List.map
      (fun gd ->
        Of_msg.Group_mod
          (match gd with
          | Intent.Group_missing g -> Intent.group_mod Of_msg.Group_mod.Add g
          | Intent.Group_changed g -> Intent.group_mod Of_msg.Group_mod.Modify g
          | Intent.Group_foreign group_id -> Of_msg.Group_mod.delete ~group_id))
      groups
  in
  let n_div = List.length missing + List.length orphans + List.length group_fixes in
  if n_div > 0 then begin
    t.stats.repairs_missing <- t.stats.repairs_missing + List.length missing;
    t.stats.repairs_orphan <- t.stats.repairs_orphan + List.length orphans;
    t.stats.repairs_group <- t.stats.repairs_group + List.length group_fixes;
    if ss.diverged_since = None then ss.diverged_since <- Some tnow;
    log t ss
      (Repair
         { missing = List.length missing; orphans = List.length orphans;
           group_fixes = List.length group_fixes });
    let payloads =
      group_fixes
      @ List.map (fun r -> Of_msg.Flow_mod (Intent.flow_mod_of_rule r)) missing
      @ List.map
          (fun (fs : Of_msg.Stats.flow_stat) ->
            Of_msg.Flow_mod
              { (Of_msg.Flow_mod.delete ~table_id:fs.Of_msg.Stats.table_id
                   ~match_:fs.Of_msg.Stats.match_ ())
                with Of_msg.Flow_mod.priority = fs.Of_msg.Stats.priority })
          orphans
    in
    enqueue t ss payloads
  end
  else
    match ss.diverged_since with
    | Some t0 ->
      let w = tnow -. t0 in
      t.windows <- w :: t.windows;
      ss.diverged_since <- None;
      if Scotch_obs.Obs.is_enabled () then begin
        Scotch_obs.Registry.observe t.divergence_h w;
        Scotch_obs.Obs.span ~name:"reliable.divergence" ~cat:"reliable" ~ts:t0 ~dur:w
          ~tid:ss.handle.C.dpid ~args:[]
      end;
      log t ss (Converged w)
    | None -> ()

let poll t ss =
  ss.stats_inflight <- true;
  let flows = ref None in
  let groups = ref None in
  let finish () =
    match (!flows, !groups) with
    | Some fs, Some gs ->
      ss.stats_inflight <- false;
      diff_and_repair t ss fs gs
    | _ -> ()
  in
  (* a lost reply just skips this round; the next tick re-polls *)
  let give_up () = ss.stats_inflight <- false in
  C.request ~deadline:stats_deadline ~on_timeout:give_up t.ctrl ss.handle
    (Of_msg.Flow_stats_request
       { Of_msg.Stats.table_id = Of_msg.Stats.all_tables; match_ = Of_match.wildcard })
    (function
      | Of_msg.Flow_stats_reply fs -> flows := Some fs; finish ()
      | _ -> give_up ());
  C.request ~deadline:stats_deadline ~on_timeout:give_up t.ctrl ss.handle
    Of_msg.Group_stats_request
    (function
      | Of_msg.Group_stats_reply gs -> groups := Some gs; finish ()
      | _ -> give_up ())

(** One reconciler round: every alive switch either resyncs (if
    flagged) or, when no transactions are in flight that could race the
    diff, gets a stats read-back and repair. *)
let tick t =
  List.iter
    (fun dpid ->
      let ss = Hashtbl.find t.switches dpid in
      if ss.handle.C.alive then begin
        if ss.needs_resync then resync t ss
        else if (not ss.stats_inflight) && ss.outstanding = 0 && Queue.is_empty ss.waiting
        then poll t ss
      end)
    (dpids t)

let start t =
  if not t.started then begin
    t.started <- true;
    let (_ : unit -> unit) =
      Engine.every (engine t) ~period:reconcile_interval ~start:reconcile_start (fun () -> tick t)
    in
    ()
  end

(** {1 Reconciliation ledger} *)

let event_string = function
  | Repair { missing; orphans; group_fixes } ->
    Printf.sprintf "repair missing=%d orphans=%d groups=%d" missing orphans group_fixes
  | Resync -> "resync"
  | Converged w -> Printf.sprintf "converged %.9g" w
  | Degraded_enter -> "degraded"
  | Degraded_exit d -> Printf.sprintf "healed %.9g" d
  | Parked n -> Printf.sprintf "parked %d" n

(** Canonical dump of the ledger, one line per record in id order. *)
let canonical t =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%.17g|%d|%s\n" r.id r.at r.dpid (event_string r.event)))
    (records t);
  Buffer.contents buf

(** Digest of {!canonical} — the bit-identity check for seeded runs. *)
let digest t = Digest.to_hex (Digest.string (canonical t))
