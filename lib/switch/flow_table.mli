(** A single OpenFlow flow table: priority-ordered rules with masked
    matches, per-rule counters, idle/hard timeouts and a bounded
    capacity (the TCAM limit of §3.3).

    The rules live in a {!Classifier}, the tuple-space index the
    verifier also keeps its tables in: insert, replace and delete are
    amortised O(1), a lookup makes one probe per mask shape, and a
    tie within a priority goes to the first rule in {!live_rules}
    order.  This module adds OpenFlow ADD semantics, the capacity bound,
    lazy expiry with periodic sweeps, counters, flow statistics and the
    change tap. *)

open Scotch_openflow

type rule = Classifier.rule = {
  priority : int;
  match_ : Of_match.t;
  instructions : Of_action.instructions;
  idle_timeout : float; (** 0 = none *)
  hard_timeout : float;
  cookie : Of_types.cookie;
  installed_at : float;
  mutable last_used : float;
  mutable packet_count : int;
  mutable byte_count : int;
}

type t

(** One applied table mutation, as seen by an {!set_on_change}
    observer.  A replace fires [Rule_removed old] then [Rule_added new];
    sweeps fire [Rule_removed] per reaped rule.  Lazy expiry is not a
    mutation: an expired rule is only reported when a sweep reaps it. *)
type change = Rule_added of rule | Rule_removed of rule

val create : ?capacity:int -> table_id:Of_types.table_id -> unit -> t
val table_id : t -> Of_types.table_id

(** Attach (or detach, with [None]) a mutation observer, fired
    synchronously after every applied rule add/replace/delete/reap.
    [None] — the default — costs one [match] per mutation. *)
val set_on_change : t -> (change -> unit) option -> unit

(** Remove expired rules; returns the number reaped. *)
val sweep : t -> now:float -> int

(** Live rule count (sweeps first; exact). *)
val size : t -> now:float -> int

(** Add a rule.  An equal (match, priority) pair replaces the old rule,
    keeping its counters (OpenFlow ADD semantics); matches are compared
    after {!Of_match.canonical}, so masked-out IP bits do not count.
    [Error `Table_full] at capacity, counted in {!insert_failures}. *)
val insert :
  t -> now:float -> priority:int -> match_:Of_match.t ->
  instructions:Of_action.instructions -> idle_timeout:float -> hard_timeout:float ->
  cookie:Of_types.cookie -> (unit, [ `Table_full ]) result

(** Remove the rules of every priority whose match equals [match_],
    compared as {!insert} compares them; returns the number removed. *)
val delete : t -> match_:Of_match.t -> int

(** What a lookup returns on a miss: a rule no table holds, compared
    with [==]. *)
val no_rule : rule

(** The live rule matching packet [pkt] arriving on [in_port] (through
    tunnel [tunnel_id]) that comes first in {!precedence} order,
    updating its counters and idle timer; {!no_rule} on a miss.  A hit
    allocates nothing. *)
val lookup :
  t -> now:float -> in_port:int -> tunnel_id:int option -> Scotch_packet.Packet.t -> rule

(** Pure lookup from a context: no counter updates; {!no_rule} on a
    miss. *)
val peek : t -> now:float -> Of_match.context -> rule

(** Flow statistics for all live rules, in the classifier's rule order:
    descending priority, then mask-shape creation order, then install
    order (a replaced rule counts as installed at its replacement). *)
val stats : t -> now:float -> Of_msg.Stats.flow_stat list

(** [fold_stats t ~now ~select acc]: the statistics of the live rules
    whose match [select] {!Of_match.selects}, in {!stats}' order, consed
    onto [acc] — a multipart reply built table by table with no list
    copied.  {!stats} is the select-all case. *)
val fold_stats :
  t -> now:float -> select:Of_match.t -> Of_msg.Stats.flow_stat list ->
  Of_msg.Stats.flow_stat list

(** One rule's flow statistics at [now], as table [table_id] reports it:
    the duration is [now -. installed_at]. *)
val stat_of_rule : table_id:Of_types.table_id -> now:float -> rule -> Of_msg.Stats.flow_stat

(** Inserts rejected for capacity so far. *)
val insert_failures : t -> int

(** Every held rule, expired or not, in the classifier's rule order. *)
val iter_rules : t -> (rule -> unit) -> unit

(** Live rules at [now] in {!Classifier.precedence} order, which depends
    on the rule set alone, not on the order the rules went in; the
    flow-table half of a verification snapshot. *)
val live_rules : t -> now:float -> rule list
