(** A single OpenFlow flow table: priority-ordered rules with masked
    matches, per-rule counters, idle/hard timeouts and a bounded
    capacity (the TCAM limit §3.3 notes can also bottleneck switches).

    Layout: rules live in per-priority buckets (descending priority
    order).  Within a bucket, rules are keyed by their match for O(1)
    add/replace/delete; {e exact-flow} rules (5-tuple only, the
    overwhelmingly common reactive-rule shape) are additionally probed
    in O(1) during lookup by constructing the packet's own exact match,
    while non-exact rules are scanned.  Expiry is lazy, with periodic
    sweeps keeping the live count honest. *)

open Scotch_openflow
open Scotch_packet

type rule = {
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

(** A rule is "exact-flow-shaped" when lookup can find it by probing
    with the packet's own 5-tuple match. *)
let is_exact_shape (m : Of_match.t) =
  m.Of_match.in_port = None && m.Of_match.eth_type = None && m.Of_match.mpls_label = None
  && m.Of_match.gre_key = None && m.Of_match.tunnel_id = None
  && (match m.Of_match.ip_src with
     | Some { Of_match.mask; _ } -> mask = Ipv4_addr.mask32
     | None -> false)
  && (match m.Of_match.ip_dst with
     | Some { Of_match.mask; _ } -> mask = Ipv4_addr.mask32
     | None -> false)
  && m.Of_match.ip_proto <> None && m.Of_match.l4_src <> None && m.Of_match.l4_dst <> None

type bucket = {
  bpriority : int;
  by_match : (Of_match.t, rule) Hashtbl.t; (* every rule of this priority *)
  mutable scan : rule list;                (* non-exact rules only *)
}

(** One applied table mutation, as seen by an {!set_on_change}
    observer.  A replace fires [Rule_removed old] then [Rule_added new];
    sweeps fire [Rule_removed] per reaped rule.  Lazy expiry is not a
    mutation: an expired rule is only reported when a sweep reaps it. *)
type change = Rule_added of rule | Rule_removed of rule

type t = {
  table_id : Of_types.table_id;
  capacity : int;
  mutable buckets : bucket list; (* descending priority *)
  mutable count : int;           (* rules present (possibly expired, pre-sweep) *)
  mutable insert_failures : int;
  mutable on_change : (change -> unit) option; (* verifier tap *)
}

let create ?(capacity = max_int) ~table_id () =
  { table_id; capacity; buckets = []; count = 0; insert_failures = 0; on_change = None }

let table_id t = t.table_id

let set_on_change t f = t.on_change <- f

let notify t ch = match t.on_change with None -> () | Some f -> f ch

let is_expired ~now r =
  (r.hard_timeout > 0.0 && now -. r.installed_at >= r.hard_timeout)
  || (r.idle_timeout > 0.0 && now -. r.last_used >= r.idle_timeout)

let remove_from_bucket t b r =
  Hashtbl.remove b.by_match r.match_;
  if not (is_exact_shape r.match_) then b.scan <- List.filter (fun x -> x != r) b.scan;
  notify t (Rule_removed r)

(** Remove expired rules; returns the number reaped. *)
let sweep t ~now =
  let reaped = ref 0 in
  List.iter
    (fun b ->
      let dead = Hashtbl.fold (fun _ r acc -> if is_expired ~now r then r :: acc else acc) b.by_match [] in
      List.iter
        (fun r ->
          remove_from_bucket t b r;
          incr reaped)
        dead)
    t.buckets;
  t.buckets <- List.filter (fun b -> Hashtbl.length b.by_match > 0) t.buckets;
  t.count <- t.count - !reaped;
  !reaped

(** Live rule count (sweeps first, so the answer is exact). *)
let size t ~now =
  ignore (sweep t ~now);
  t.count

let find_bucket t priority = List.find_opt (fun b -> b.bpriority = priority) t.buckets

let add_bucket t priority =
  let b = { bpriority = priority; by_match = Hashtbl.create 16; scan = [] } in
  let rec place = function
    | [] -> [ b ]
    | x :: rest when x.bpriority > priority -> x :: place rest
    | rest -> b :: rest
  in
  t.buckets <- place t.buckets;
  b

(** [insert t ~now ...] adds a rule.  A rule with an equal match and
    priority replaces the old one (OpenFlow ADD semantics).  Returns
    [Error `Table_full] at capacity (counted in [insert_failures]). *)
let insert t ~now ~priority ~match_ ~instructions ~idle_timeout ~hard_timeout ~cookie =
  let b = match find_bucket t priority with Some b -> b | None -> add_bucket t priority in
  let fresh () =
    { priority; match_; instructions; idle_timeout; hard_timeout; cookie; installed_at = now;
      last_used = now; packet_count = 0; byte_count = 0 }
  in
  match Hashtbl.find_opt b.by_match match_ with
  | Some old ->
    let r = { (fresh ()) with packet_count = old.packet_count; byte_count = old.byte_count } in
    remove_from_bucket t b old;
    Hashtbl.replace b.by_match match_ r;
    if not (is_exact_shape match_) then b.scan <- r :: b.scan;
    notify t (Rule_added r);
    Ok ()
  | None ->
    if t.count >= t.capacity then ignore (sweep t ~now);
    if t.count >= t.capacity then begin
      t.insert_failures <- t.insert_failures + 1;
      Error `Table_full
    end
    else begin
      (* the sweep may have dropped this bucket; re-resolve it *)
      let b = match find_bucket t priority with Some b -> b | None -> add_bucket t priority in
      let r = fresh () in
      Hashtbl.replace b.by_match match_ r;
      if not (is_exact_shape match_) then b.scan <- r :: b.scan;
      t.count <- t.count + 1;
      notify t (Rule_added r);
      Ok ()
    end

(** [delete t ?priority ~match_ ()] removes rules whose match equals
    [match_] (all priorities unless [priority] given); returns the
    number removed. *)
let delete t ?priority ~match_ () =
  let removed = ref 0 in
  List.iter
    (fun b ->
      match priority with
      | Some p when p <> b.bpriority -> ()
      | _ -> (
        match Hashtbl.find_opt b.by_match match_ with
        | Some r ->
          remove_from_bucket t b r;
          incr removed
        | None -> ()))
    t.buckets;
  t.count <- t.count - !removed;
  !removed

(** [delete_by_cookie t cookie] removes all rules tagged [cookie]
    (Scotch withdraws its overlay rules this way). *)
let delete_by_cookie t cookie =
  let removed = ref 0 in
  List.iter
    (fun b ->
      let dead =
        Hashtbl.fold (fun _ r acc -> if r.cookie = cookie then r :: acc else acc) b.by_match []
      in
      List.iter
        (fun r ->
          remove_from_bucket t b r;
          incr removed)
        dead)
    t.buckets;
  t.count <- t.count - !removed;
  !removed

let touch ~now ~size:sz r =
  r.last_used <- now;
  r.packet_count <- r.packet_count + 1;
  r.byte_count <- r.byte_count + sz

let match_in_bucket ~now b (ctx : Of_match.context) =
  (* O(1) probe for an exact-flow rule, then scan the non-exact rules *)
  let exact =
    match Hashtbl.find_opt b.by_match (Of_match.exact_flow (Packet.flow_key ctx.Of_match.packet)) with
    | Some r when not (is_expired ~now r) -> Some r
    | Some _ | None -> None
  in
  match exact with
  | Some _ -> exact
  | None ->
    List.find_opt (fun r -> (not (is_expired ~now r)) && Of_match.matches r.match_ ctx) b.scan

(** [lookup t ~now ctx] finds the highest-priority live rule matching
    [ctx], updating its counters and idle timer. *)
let lookup t ~now (ctx : Of_match.context) =
  let rec go = function
    | [] -> None
    | b :: rest -> (
      match match_in_bucket ~now b ctx with
      | Some r ->
        touch ~now ~size:(Packet.size ctx.Of_match.packet) r;
        Some r
      | None -> go rest)
  in
  go t.buckets

(** Pure lookup: no counter updates (tests and stats). *)
let peek t ~now (ctx : Of_match.context) =
  let rec go = function
    | [] -> None
    | b :: rest -> (
      match match_in_bucket ~now b ctx with Some r -> Some r | None -> go rest)
  in
  go t.buckets

(** One rule's flow statistics at [now], as table [table_id] reports it. *)
let stat_of_rule ~table_id ~now r : Of_msg.Stats.flow_stat =
  { Of_msg.Stats.table_id;
    priority = r.priority;
    match_ = r.match_;
    packet_count = r.packet_count;
    byte_count = r.byte_count;
    duration = now -. r.installed_at;
    cookie = r.cookie }

(** Flow statistics for all live rules. *)
let stats t ~now : Of_msg.Stats.flow_stat list =
  List.concat_map
    (fun b ->
      Hashtbl.fold
        (fun _ r acc ->
          if is_expired ~now r then acc else stat_of_rule ~table_id:t.table_id ~now r :: acc)
        b.by_match [])
    t.buckets

let insert_failures t = t.insert_failures

let iter_rules t f = List.iter (fun b -> Hashtbl.iter (fun _ r -> f r) b.by_match) t.buckets

(** Live rules at [now], highest priority first (ties broken by
    specificity then by structural match order, so the order is
    deterministic whatever the hashing) — the flow-table half of a
    {!Scotch_verify.Snapshot}. *)
let live_rules t ~now =
  let acc = ref [] in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun _ r ->
          if not (is_expired ~now r) then acc := (Of_match.specificity r.match_, r) :: !acc)
        b.by_match)
    t.buckets;
  List.map snd
    (List.sort
       (fun (sa, (a : rule)) (sb, (b : rule)) ->
         match compare b.priority a.priority with
         | 0 -> ( match compare sb sa with 0 -> compare a.match_ b.match_ | c -> c)
         | c -> c)
       !acc)
