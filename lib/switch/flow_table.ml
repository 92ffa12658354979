(** A single OpenFlow flow table: priority-ordered rules with masked
    matches, per-rule counters, idle/hard timeouts and a bounded
    capacity (the TCAM limit §3.3 notes can also bottleneck switches).

    Layout: tuple-space search, the Open vSwitch classifier ("Packet
    Classification using Tuple Space Search", SIGCOMM '99; "The Design
    and Implementation of Open vSwitch", NSDI '15).  Rules live in
    per-priority buckets (descending priority order).  A bucket holds
    one subtable per mask shape — the fields a match pins plus its IP
    masks — and a subtable is a hash table keyed by its rules' own
    matches, whose IP values are already masked ({!Of_match.canonical}).
    Each rule sits in exactly one subtable, so insert, replace and
    delete are one hash operation, and a lookup builds the packet's key
    for each shape and makes one probe per subtable.  Within a priority
    the winner is the first matching rule in {!live_rules} order
    ({!precedence}).  Expiry is lazy, with periodic sweeps keeping the
    live count honest; a sweep also drops the subtables and buckets it
    leaves empty. *)

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

(* The rules of one priority sharing one mask shape.  [shape] is the
   first rule's match: its present fields and IP masks are the
   subtable's, its values are not read. *)
type subtable = {
  shape : Of_match.t;
  rules : (Of_match.t, rule) Hashtbl.t; (* keyed by the rule's match *)
}

type bucket = {
  bpriority : int;
  mutable subtables : subtable list; (* creation order *)
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

(** The order of {!live_rules}, and the lookup winner among matching
    rules: higher priority, then more fields pinned, then structural
    match order. *)
let precedence (a : rule) (b : rule) =
  match Int.compare b.priority a.priority with
  | 0 -> (
    match Int.compare (Of_match.specificity b.match_) (Of_match.specificity a.match_) with
    | 0 -> compare a.match_ b.match_
    | c -> c)
  | c -> c

(* Do [a] and [b] pin the same fields, with the same IP masks? *)
let same_shape (a : Of_match.t) (b : Of_match.t) =
  let pins x y = Option.is_some x = Option.is_some y in
  let ip (x : Of_match.masked option) (y : Of_match.masked option) =
    match (x, y) with
    | None, None -> true
    | Some x, Some y -> x.Of_match.mask = y.Of_match.mask
    | Some _, None | None, Some _ -> false
  in
  pins a.Of_match.in_port b.Of_match.in_port
  && pins a.Of_match.eth_type b.Of_match.eth_type
  && ip a.Of_match.ip_src b.Of_match.ip_src
  && ip a.Of_match.ip_dst b.Of_match.ip_dst
  && pins a.Of_match.ip_proto b.Of_match.ip_proto
  && pins a.Of_match.l4_src b.Of_match.l4_src
  && pins a.Of_match.l4_dst b.Of_match.l4_dst
  && pins a.Of_match.mpls_label b.Of_match.mpls_label
  && pins a.Of_match.gre_key b.Of_match.gre_key
  && pins a.Of_match.tunnel_id b.Of_match.tunnel_id

(* The packet's key in a subtable of [shape]: the packet's values in
   the fields [shape] pins, IP addresses masked as [shape] masks them.
   A pinned encapsulation or tunnel the packet lacks stays [None], which
   no stored key has, so the probe misses — as {!Of_match.matches}
   would. *)
let probe_key (shape : Of_match.t) (ctx : Of_match.context) (key : Flow_key.t) : Of_match.t =
  let p = ctx.Of_match.packet in
  let pin o v = match o with None -> None | Some _ -> Some v in
  let ip (o : Of_match.masked option) addr =
    match o with
    | None -> None
    | Some { Of_match.mask; _ } -> Some { Of_match.value = addr land mask; mask }
  in
  { Of_match.in_port = pin shape.Of_match.in_port ctx.Of_match.in_port;
    eth_type = pin shape.Of_match.eth_type p.Packet.eth.Headers.Ethernet.ethertype;
    ip_src = ip shape.Of_match.ip_src key.Flow_key.ip_src;
    ip_dst = ip shape.Of_match.ip_dst key.Flow_key.ip_dst;
    ip_proto = pin shape.Of_match.ip_proto key.Flow_key.proto;
    l4_src = pin shape.Of_match.l4_src key.Flow_key.l4_src;
    l4_dst = pin shape.Of_match.l4_dst key.Flow_key.l4_dst;
    mpls_label =
      (match shape.Of_match.mpls_label with None -> None | Some _ -> Packet.outer_mpls_label p);
    gre_key = (match shape.Of_match.gre_key with None -> None | Some _ -> Packet.outer_gre_key p);
    tunnel_id =
      (match shape.Of_match.tunnel_id with None -> None | Some _ -> ctx.Of_match.tunnel_id) }

let find_bucket t priority = List.find_opt (fun b -> b.bpriority = priority) t.buckets

let find_subtable b match_ = List.find_opt (fun st -> same_shape st.shape match_) b.subtables

(* The subtable [match_] belongs in, created (with its bucket) if new. *)
let subtable_for t ~priority match_ =
  let b =
    match find_bucket t priority with
    | Some b -> b
    | None ->
      let b = { bpriority = priority; subtables = [] } in
      let rec place = function
        | [] -> [ b ]
        | x :: rest when x.bpriority > priority -> x :: place rest
        | rest -> b :: rest
      in
      t.buckets <- place t.buckets;
      b
  in
  match find_subtable b match_ with
  | Some st -> st
  | None ->
    let st = { shape = match_; rules = Hashtbl.create 16 } in
    b.subtables <- b.subtables @ [ st ];
    st

let add t st r =
  Hashtbl.replace st.rules r.match_ r;
  t.count <- t.count + 1;
  notify t (Rule_added r)

let remove t st r =
  Hashtbl.remove st.rules r.match_;
  t.count <- t.count - 1;
  notify t (Rule_removed r)

(* Remove every rule of [st] that [dead] selects. *)
let remove_where t st dead =
  let doomed = Hashtbl.fold (fun _ r acc -> if dead r then r :: acc else acc) st.rules [] in
  List.iter (remove t st) doomed

(** Remove expired rules; returns the number reaped. *)
let sweep t ~now =
  let before = t.count in
  let keep st =
    remove_where t st (is_expired ~now);
    if Hashtbl.length st.rules > 0 then Some st else None
  in
  t.buckets <-
    List.filter_map
      (fun b ->
        b.subtables <- List.filter_map keep b.subtables;
        match b.subtables with [] -> None | _ -> Some b)
      t.buckets;
  before - t.count

(** Live rule count (sweeps first, so the answer is exact). *)
let size t ~now =
  ignore (sweep t ~now);
  t.count

(** [insert t ~now ...] adds a rule.  A rule with an equal match and
    priority replaces the old one (OpenFlow ADD semantics).  Returns
    [Error `Table_full] at capacity (counted in [insert_failures]). *)
let insert t ~now ~priority ~match_ ~instructions ~idle_timeout ~hard_timeout ~cookie =
  let match_ = Of_match.canonical match_ in
  let fresh () =
    { priority; match_; instructions; idle_timeout; hard_timeout; cookie; installed_at = now;
      last_used = now; packet_count = 0; byte_count = 0 }
  in
  let replaced =
    match Option.bind (find_bucket t priority) (fun b -> find_subtable b match_) with
    | None -> false
    | Some st -> (
      match Hashtbl.find_opt st.rules match_ with
      | None -> false
      | Some old ->
        remove t st old;
        add t st { (fresh ()) with packet_count = old.packet_count; byte_count = old.byte_count };
        true)
  in
  if replaced then Ok ()
  else begin
    if t.count >= t.capacity then ignore (sweep t ~now);
    if t.count >= t.capacity then begin
      t.insert_failures <- t.insert_failures + 1;
      Error `Table_full
    end
    else begin
      add t (subtable_for t ~priority match_) (fresh ());
      Ok ()
    end
  end

(** [delete t ?priority ~match_ ()] removes rules whose match equals
    [match_] (all priorities unless [priority] given); returns the
    number removed. *)
let delete t ?priority ~match_ () =
  let match_ = Of_match.canonical match_ in
  let before = t.count in
  List.iter
    (fun b ->
      match priority with
      | Some p when p <> b.bpriority -> ()
      | _ -> (
        match find_subtable b match_ with
        | None -> ()
        | Some st -> Option.iter (remove t st) (Hashtbl.find_opt st.rules match_)))
    t.buckets;
  before - t.count

(** [delete_by_cookie t cookie] removes all rules tagged [cookie]
    (Scotch withdraws its overlay rules this way). *)
let delete_by_cookie t cookie =
  let before = t.count in
  List.iter
    (fun b -> List.iter (fun st -> remove_where t st (fun r -> r.cookie = cookie)) b.subtables)
    t.buckets;
  before - t.count

(* The bucket's winner for [ctx]: one probe per subtable, the first
   live hit in {!precedence} order. *)
let rec best_in ~now ctx key best = function
  | [] -> best
  | st :: rest ->
    let best =
      if Hashtbl.length st.rules = 0 then best
      else
        match Hashtbl.find_opt st.rules (probe_key st.shape ctx key) with
        | Some r as hit when not (is_expired ~now r) -> (
          match best with Some b when precedence b r < 0 -> best | _ -> hit)
        | Some _ | None -> best
    in
    best_in ~now ctx key best rest

let rec first_hit ~now ctx key = function
  | [] -> None
  | b :: rest -> (
    match best_in ~now ctx key None b.subtables with
    | Some _ as hit -> hit
    | None -> first_hit ~now ctx key rest)

(** Pure lookup: no counter updates (tests and stats). *)
let peek t ~now (ctx : Of_match.context) =
  match t.buckets with
  | [] -> None
  | buckets -> first_hit ~now ctx (Packet.flow_key ctx.Of_match.packet) buckets

(** [lookup t ~now ctx] finds the highest-priority live rule matching
    [ctx], updating its counters and idle timer. *)
let lookup t ~now (ctx : Of_match.context) =
  match peek t ~now ctx with
  | Some r as hit ->
    r.last_used <- now;
    r.packet_count <- r.packet_count + 1;
    r.byte_count <- r.byte_count + Packet.size ctx.Of_match.packet;
    hit
  | None -> None

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
      List.concat_map
        (fun st ->
          Hashtbl.fold
            (fun _ r acc ->
              if is_expired ~now r then acc else stat_of_rule ~table_id:t.table_id ~now r :: acc)
            st.rules [])
        b.subtables)
    t.buckets

let insert_failures t = t.insert_failures

let iter_rules t f =
  List.iter (fun b -> List.iter (fun st -> Hashtbl.iter (fun _ r -> f r) st.rules) b.subtables)
    t.buckets

(** Live rules at [now] in {!precedence} order, which depends only on
    the rule set, not on hashing — the flow-table half of a
    {!Scotch_verify.Snapshot}. *)
let live_rules t ~now =
  let acc = ref [] in
  iter_rules t (fun r -> if not (is_expired ~now r) then acc := r :: !acc);
  List.sort precedence !acc
