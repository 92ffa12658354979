(** A single OpenFlow flow table: priority-ordered rules with masked
    matches, per-rule counters, idle/hard timeouts and a bounded
    capacity (the TCAM limit §3.3 notes can also bottleneck switches).

    The rules live in a {!Classifier} (tuple-space search, one probe per
    mask shape); this module adds what a switch's table does on top of
    it: OpenFlow ADD semantics with counters kept across a replace, the
    capacity bound, lazy expiry with periodic sweeps keeping the live
    count honest (a sweep also drops the subtables and buckets it leaves
    empty), per-rule counters on lookup, flow statistics and the
    verifier's change tap. *)

open Scotch_openflow
open Scotch_packet

type rule = Classifier.rule = {
  priority : int;
  match_ : Of_match.t;
  instructions : Of_action.instructions;
  idle_timeout : float; (* 0 = none *)
  hard_timeout : float;
  cookie : Of_types.cookie;
  installed_at : float;
  mutable last_used : float;
  mutable packet_count : int;
  mutable byte_count : int;
}

(** One applied table mutation, as seen by an {!set_on_change}
    observer.  A replace fires [Rule_removed old] then [Rule_added new];
    sweeps fire [Rule_removed] per reaped rule.  Lazy expiry is not a
    mutation: an expired rule is only reported when a sweep reaps it. *)
type change = Rule_added of rule | Rule_removed of rule

type t = {
  table_id : Of_types.table_id;
  capacity : int;
  rules : Classifier.t; (* possibly expired, pre-sweep *)
  mutable insert_failures : int;
  mutable on_change : (change -> unit) option; (* verifier tap *)
}

let create ?(capacity = max_int) ~table_id () =
  { table_id; capacity; rules = Classifier.create (); insert_failures = 0; on_change = None }

let table_id t = t.table_id

let set_on_change t f = t.on_change <- f

let notify t ch = match t.on_change with None -> () | Some f -> f ch

let precedence = Classifier.precedence

let add t r =
  Classifier.add t.rules r;
  notify t (Rule_added r)

let remove t r =
  Classifier.remove t.rules r;
  notify t (Rule_removed r)

(** Remove expired rules; returns the number reaped. *)
let sweep t ~now =
  let doomed = Classifier.remove_where t.rules (Classifier.expired ~now) in
  List.iter (fun r -> notify t (Rule_removed r)) doomed;
  Classifier.compact t.rules;
  List.length doomed

(** Live rule count (sweeps first, so the answer is exact). *)
let size t ~now =
  ignore (sweep t ~now);
  Classifier.length t.rules

(** [insert t ~now ...] adds a rule.  A rule with an equal match and
    priority replaces the old one (OpenFlow ADD semantics).  Returns
    [Error `Table_full] at capacity (counted in [insert_failures]). *)
let insert t ~now ~priority ~match_ ~instructions ~idle_timeout ~hard_timeout ~cookie =
  let match_ = Of_match.canonical match_ in
  let fresh () =
    { priority; match_; instructions; idle_timeout; hard_timeout; cookie; installed_at = now;
      last_used = now; packet_count = 0; byte_count = 0 }
  in
  match Classifier.find t.rules ~priority match_ with
  | Some old ->
    remove t old;
    add t { (fresh ()) with packet_count = old.packet_count; byte_count = old.byte_count };
    Ok ()
  | None ->
    if Classifier.length t.rules >= t.capacity then ignore (sweep t ~now);
    if Classifier.length t.rules >= t.capacity then begin
      t.insert_failures <- t.insert_failures + 1;
      Error `Table_full
    end
    else begin
      add t (fresh ());
      Ok ()
    end

(** [delete t ~match_] removes the rules of every priority whose match
    equals [match_]; returns the number removed. *)
let delete t ~match_ =
  let doomed = Classifier.find_all t.rules (Of_match.canonical match_) in
  List.iter (remove t) doomed;
  List.length doomed

let no_rule = Classifier.vacant

(** Pure lookup from a context: no counter updates (tests and stats). *)
let peek t ~now (c : Of_match.context) =
  Classifier.lookup t.rules ~now ~in_port:c.in_port ~tunnel_id:c.tunnel_id c.packet

(** [lookup t ~now ~in_port ~tunnel_id pkt] finds the highest-priority
    live rule matching the packet, updating its counters and idle
    timer; {!no_rule} on a miss. *)
let lookup t ~now ~in_port ~tunnel_id pkt =
  let r = Classifier.lookup t.rules ~now ~in_port ~tunnel_id pkt in
  if r != no_rule then begin
    r.last_used <- now;
    r.packet_count <- r.packet_count + 1;
    r.byte_count <- r.byte_count + Packet.size pkt
  end;
  r

(** One rule's flow statistics at [now], as table [table_id] reports it. *)
let stat_of_rule ~table_id ~now r : Of_msg.Stats.flow_stat =
  { Of_msg.Stats.table_id;
    priority = r.priority;
    match_ = r.match_;
    packet_count = r.packet_count;
    byte_count = r.byte_count;
    duration = now -. r.installed_at;
    cookie = r.cookie }

(** [fold_stats t ~now ~select acc] conses the statistics of the live
    rules [select] selects onto [acc], in the classifier's rule order:
    one fold, one record per rule. *)
let fold_stats t ~now ~select acc : Of_msg.Stats.flow_stat list =
  let table_id = t.table_id in
  Classifier.fold
    (fun r acc ->
      if Classifier.expired ~now r || not (Of_match.selects select r.match_) then acc
      else stat_of_rule ~table_id ~now r :: acc)
    t.rules acc

(** Flow statistics for all live rules, in the classifier's rule order. *)
let stats t ~now = fold_stats t ~now ~select:Of_match.wildcard []

let insert_failures t = t.insert_failures

let iter_rules t f = Classifier.fold (fun r () -> f r) t.rules ()

(** Live rules at [now] in {!precedence} order, which depends only on
    the rule set, not on the order the rules went in — the flow-table
    half of a {!Scotch_verify.Snapshot}. *)
let live_rules t ~now =
  List.sort precedence
    (Classifier.fold (fun r acc -> if Classifier.expired ~now r then acc else r :: acc) t.rules [])
