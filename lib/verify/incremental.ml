(** The incremental dataplane verifier: per-update invariant checking.

    Maintains a {!Snapshot.t} model of the network plus cached
    per-invariant results, and on each delta (flow-mod, group-mod,
    port/failure event or one switch's intent change) recomputes only
    what the delta can affect; wholesale changes (node joins, hosts,
    overlay membership) are folded in by {!refresh}:

    {ul
    {- {b Loop}: header space is partitioned into the same flow-key
       equivalence classes the snapshot checker seeds
       ({!Inv_loop.seeds}), chosen by a capped insert
       ({!Inv_loop.Capped.offer}) that keeps the selection the rescan
       makes, over the same host index; a key the
       insert evicts waits in overflow until a withdrawal promotes it.
       A changed rule's match selects the active classes it can touch
       (one hash probe for a match pinning a whole 5-tuple, one
       filtered pass over the active classes otherwise), and each
       cached class records the dpids its last walk visited, so
       group/port/failure events on a switch re-walk exactly the
       classes whose paths cross it.}
    {- {b Blackhole}: cached {e per rule} (only violating rules are
       stored); a rule delta grades just the delta rules.  Whole-node
       rebuilds happen only when the rule environment shifts: a table
       flipping empty<->nonempty (goto targets), a group delta
       (membership), and port/failure events (peer liveness).}
    {- {b Shadow}: no state of its own.  A rule delta ledgers each
       rule's {!Inv_shadow.pairs}, queried from its classifier, after
       the rule is added and before it is removed; a node's cache
       records whether it was built for a live node, so its shadow
       findings are retracted by recomputing them.}
    {- {b Group sanity}: cached per node; recomputed on that node's
       group deltas and on liveness-affecting events.}
    {- {b Coverage}: recomputed on port changes, and on table-0
       deltas only when the delta contains a miss-shaped (priority-0
       wildcard) rule — per-flow rule churn cannot change miss
       coverage.}
    {- {b Divergence}: cached per reliable-managed switch; recomputed
       on that switch's deltas and intent changes, and when an entry in
       grace (an owned device rule, a durable intent rule, an intent
       group) ages past the repair grace ({!Inv_divergence.deadline}).
       The intent stores are the reliable layer's own, read in place:
       the model holds no copy, and intents age on the model's [now]
       like the device rules.}}

    Rule state is the model's own {!Snapshot.node} tables: one
    {!Scotch_switch.Classifier} per (switch, table), the index the
    datapath's flow tables use, edited in place.  Every invariant reads
    that one index, so a {!Table_delta} (the switch tap's shape) costs
    one classifier operation per delta rule even on a table holding
    tens of thousands of reactive rules.  {!create} and {!refresh} take
    over the classifiers of the snapshot they are given; the audit
    rescans fresh copies ({!model}).

    All per-class and per-rule oracles are the same [Inv_*] functions
    the snapshot {!Checker} composes, so the two paths cannot drift;
    the {!check_equivalence} audit verifies [diagnostics t] equals a
    fresh [Checker.check (model t)]; the resilience smoke requires
    zero mismatches.  Every cached finding set mirrors its contents into a
    refcounted diagnostic {e ledger}; the current diagnostic list is
    the ledger's key set, so an apply costs O(its own diag delta) even
    during violation-heavy windows — never an O(model) re-gather.

    Diagnostics carry {!Diagnostic.t.first_at}: the virtual time at
    which the violation first entered the current set. *)

open Scotch_openflow
open Scotch_packet
open Scotch_switch
module D = Diagnostic
module S = Snapshot
module DMap = Map.Make (D)

type update =
  | Table_delta of {
      dpid : int;
      table_id : int;
      added : Flow_table.rule list;
      removed : Flow_table.rule list;
    }
      (** the applied rule delta itself — the {!Scotch_switch.Switch}
          tap's shape; O(delta) regardless of table size *)
  | Groups of { dpid : int; groups : Group_table.group list }
  | Ports of { dpid : int; ports : S.port list; failed : bool }
  | Intents of { dpid : int; store : Scotch_reliable.Intent.t }
      (** switch [dpid]'s intent store, read in place, changed *)

type class_cache = {
  mutable entry : (int * int) list;
  mutable cdiags : D.t list;
  mutable ctouched : int list; (* sorted dpids the walk visited *)
}

type local_cache = {
  live : bool; (* built for a live node: its shadow pairs are ledgered *)
  mutable lc_grp : D.t list; (* group sanity, whole node *)
  lc_bh : (int * Inv_common.slot, D.t list) Hashtbl.t; (* violating rules only *)
}

(* One kind of class key, known-source or orphan: the rescan's capped
   selection, whose members are the active classes, plus the keys it
   pushed out, parked until a withdrawal promotes the smallest. *)
type universe = {
  active : Inv_loop.Capped.t;
  mutable overflow : Flow_key.Set.t;
}

let lat_cap = 8192

type t = {
  mutable model : S.t; (* its tables are the authoritative rules *)
  refs : int ref Flow_key.Hashtbl.t; (* rule-derived refcounts; host-pair keys hold one *)
  mutable host_keys : Flow_key.Set.t;
  mutable hosts : (int, S.host) Hashtbl.t; (* {!Inv_loop.host_index} *)
  mutable edges : (int * int) list; (* orphan injection points *)
  mutable known : universe;
  mutable orphan : universe;
  classes : class_cache Flow_key.Hashtbl.t; (* exactly the active sets *)
  dirty : (Flow_key.t, unit) Hashtbl.t; (* classes to re-walk this apply; empty between *)
  walk : Inv_loop.env; (* reused by every re-walk *)
  local : (int, local_cache) Hashtbl.t; (* per-node blackhole+group *)
  mutable coverage : D.t list;
  div : (int, D.t list) Hashtbl.t;
  div_deadlines : (int, float) Hashtbl.t; (* {!Inv_divergence.deadline} per dpid *)
  mutable ledger : int DMap.t;
      (* live diagnostic -> multiplicity across every cache; its key
         set IS the current diagnostic set *)
  mutable changed : unit DMap.t; (* ledger keys touched since [settle] *)
  mutable first_seen : float DMap.t;
  mutable current : D.t list; (* ledger keys in order, stamped *)
  (* counters *)
  mutable n_updates : int;
  mutable n_classes_touched : int;
  mutable n_violations : int; (* distinct violations ever entered *)
  mutable n_equiv_checks : int;
  mutable n_equiv_mismatches : int;
  lat : float array; (* seconds per apply, ring buffer *)
  mutable lat_total : int;
}

type stats = {
  updates : int;
  classes_touched : int;
  class_count : int;
  violations_seen : int;
  equiv_checks : int;
  equiv_mismatches : int;
  p50_us : float;
  p99_us : float;
}

(* ------------------------------------------------------------------ *)
(* The diagnostic ledger: every cached finding set (per-class walks,
   per-rule blackholes, shadow pairs, group sanity, coverage,
   divergence) mirrors its contents here as refcounts, so the current
   diagnostic set never has to be re-gathered from the caches.  A
   violation-churning update costs O(its own diag delta); [settle]
   reconciles first-seen stamps and rebuilds the ordered list only when
   something actually changed. *)

let ledger_add t ds =
  List.iter
    (fun d ->
      let n = Option.value (DMap.find_opt d t.ledger) ~default:0 in
      t.ledger <- DMap.add d (n + 1) t.ledger;
      t.changed <- DMap.add d () t.changed)
    ds

let ledger_remove t ds =
  List.iter
    (fun d ->
      match DMap.find_opt d t.ledger with
      | None -> () (* a cache retracting a finding it never registered *)
      | Some n ->
        if n <= 1 then t.ledger <- DMap.remove d t.ledger
        else t.ledger <- DMap.add d (n - 1) t.ledger;
        t.changed <- DMap.add d () t.changed)
    ds

(* ------------------------------------------------------------------ *)
(* Class universe maintenance *)

let universe cap = { active = Inv_loop.Capped.create cap; overflow = Flow_key.Set.empty }

let universe_of t key = if Inv_loop.is_known t.hosts key then t.known else t.orphan

(* [dirty] collects classes needing a (re-)walk this apply. *)
let activate t dirty key =
  Flow_key.Hashtbl.replace t.classes key
    { entry = Inv_loop.entry_points t.hosts ~edges:t.edges key; cdiags = []; ctouched = [] };
  Hashtbl.replace dirty key ()

let deactivate t dirty key =
  (match Flow_key.Hashtbl.find_opt t.classes key with
  | Some c when c.cdiags <> [] -> ledger_remove t c.cdiags
  | _ -> ());
  Flow_key.Hashtbl.remove t.classes key;
  Hashtbl.remove dirty key

(* Activation keeps the exact selection the rescan's {!Inv_loop.seeds}
   makes, through {!Inv_loop.Capped.offer}. *)
let enter_universe t dirty key =
  let u = universe_of t key in
  match Inv_loop.Capped.offer u.active key with
  | Inv_loop.Capped.Kept -> activate t dirty key
  | Inv_loop.Capped.Rejected -> u.overflow <- Flow_key.Set.add key u.overflow
  | Inv_loop.Capped.Evicted mx ->
    u.overflow <- Flow_key.Set.add mx u.overflow;
    deactivate t dirty mx;
    activate t dirty key

let leave_universe t dirty key =
  let u = universe_of t key in
  if Inv_loop.Capped.withdraw u.active key then begin
    deactivate t dirty key;
    match Flow_key.Set.min_elt_opt u.overflow with
    | Some k ->
      u.overflow <- Flow_key.Set.remove k u.overflow;
      ignore (Inv_loop.Capped.offer u.active k);
      activate t dirty k
    | None -> ()
  end
  else u.overflow <- Flow_key.Set.remove key u.overflow

let ref_key t dirty key =
  match Flow_key.Hashtbl.find_opt t.refs key with
  | Some r -> incr r
  | None ->
    Flow_key.Hashtbl.add t.refs key (ref 1);
    enter_universe t dirty key

let unref_key t dirty key =
  match Flow_key.Hashtbl.find_opt t.refs key with
  | None -> ()
  | Some r ->
    decr r;
    if !r <= 0 then begin
      Flow_key.Hashtbl.remove t.refs key;
      leave_universe t dirty key
    end

(* ------------------------------------------------------------------ *)
(* Model editing and the per-table classifiers *)

let set_node t (n : S.node) =
  let rest = List.filter (fun (o : S.node) -> o.S.dpid <> n.S.dpid) t.model.S.nodes in
  t.model <-
    { t.model with
      S.nodes = List.sort (fun (a : S.node) b -> compare a.S.dpid b.S.dpid) (n :: rest) }

(* Table [table_id] of [n], created empty (with [n] updated) if new. *)
let classifier t (n : S.node) table_id =
  match S.table n table_id with
  | Some c -> (n, c)
  | None ->
    let c = Classifier.create () in
    let n =
      { n with
        S.tables = List.sort (fun (a, _) (b, _) -> compare a b) ((table_id, c) :: n.S.tables) }
    in
    set_node t n;
    (n, c)

(** The tracked network, each table a fresh copy of the tracked one. *)
let model t =
  let copy (table_id, c) = (table_id, Classifier.of_list (Classifier.to_list c)) in
  { t.model with
    S.nodes =
      List.map (fun (n : S.node) -> { n with S.tables = List.map copy n.S.tables }) t.model.S.nodes
  }

(** The tracked ports of switch [dpid]. *)
let ports t dpid = Option.map (fun (n : S.node) -> n.S.ports) (S.node t.model dpid)

(* ------------------------------------------------------------------ *)
(* Per-invariant recomputation via the shared oracles *)

(* --- blackhole: per-rule, only violating rules stored --- *)

(* A node with no violating rule, the usual case, builds no slot key. *)
let bh_remove t lc ~table_id r =
  if Hashtbl.length lc.lc_bh > 0 then begin
    let k = (table_id, Inv_common.slot_of r) in
    match Hashtbl.find lc.lc_bh k with
    | exception Not_found -> ()
    | ds ->
      Hashtbl.remove lc.lc_bh k;
      ledger_remove t ds
  end

let bh_rule t lc (n : S.node) ~table_id r =
  bh_remove t lc ~table_id r;
  match Inv_blackhole.rule t.model n ~table_id r with
  | [] -> ()
  | ds ->
    Hashtbl.replace lc.lc_bh (table_id, Inv_common.slot_of r) ds;
    ledger_add t ds

let rebuild_blackhole t lc (n : S.node) =
  Hashtbl.iter (fun _ ds -> ledger_remove t ds) lc.lc_bh;
  Hashtbl.reset lc.lc_bh;
  if not n.S.failed then
    List.iter
      (fun (table_id, c) -> Classifier.fold (fun r () -> bh_rule t lc n ~table_id r) c ())
      n.S.tables

(* --- whole-node (re)builds --- *)

let build_local t (n : S.node) =
  let lc = { live = not n.S.failed; lc_grp = []; lc_bh = Hashtbl.create 8 } in
  if lc.live then begin
    lc.lc_grp <- Inv_group.node t.model n;
    ledger_add t lc.lc_grp;
    rebuild_blackhole t lc n;
    ledger_add t (Inv_shadow.node n)
  end;
  lc

(* Retract every finding ledgered for node [dpid]: its shadow findings
   are recomputed, so its tables must still hold what was ledgered. *)
let retract_local t dpid lc =
  ledger_remove t lc.lc_grp;
  Hashtbl.iter (fun _ ds -> ledger_remove t ds) lc.lc_bh;
  match S.node t.model dpid with
  | Some n when lc.live -> ledger_remove t (Inv_shadow.node n)
  | _ -> ()

let retract_all_local t =
  Hashtbl.iter (retract_local t) t.local;
  Hashtbl.reset t.local

let build_all_local t =
  List.iter
    (fun (n : S.node) -> Hashtbl.replace t.local n.S.dpid (build_local t n))
    t.model.S.nodes

(* --- divergence --- *)

let recompute_divergence t dpid =
  let clear () =
    (match Hashtbl.find_opt t.div dpid with
    | Some ((_ :: _) as old) -> ledger_remove t old
    | _ -> ());
    Hashtbl.remove t.div dpid;
    Hashtbl.remove t.div_deadlines dpid
  in
  match t.model.S.intents with
  | None -> clear ()
  | Some st -> (
    match List.find_opt (fun (i : S.intent_node) -> i.S.int_dpid = dpid) st.S.per_switch with
    | None -> clear ()
    | Some inode ->
      let now = t.model.S.now in
      let n = S.node t.model dpid in
      let ds = match n with Some n -> Inv_divergence.node ~now st inode n | None -> [] in
      (match (Hashtbl.find_opt t.div dpid, ds) with
      | None, [] -> ()
      | Some old, _ when old = ds -> ()
      | old, _ ->
        Option.iter (ledger_remove t) old;
        ledger_add t ds);
      if ds = [] then Hashtbl.remove t.div dpid else Hashtbl.replace t.div dpid ds;
      (match Option.bind n (Inv_divergence.deadline ~now st inode) with
      | Some stamp -> Hashtbl.replace t.div_deadlines dpid stamp
      | None -> Hashtbl.remove t.div_deadlines dpid))

let recompute_all_divergence t =
  Hashtbl.iter (fun _ ds -> ledger_remove t ds) t.div;
  Hashtbl.reset t.div;
  Hashtbl.reset t.div_deadlines;
  match t.model.S.intents with
  | None -> ()
  | Some st ->
    List.iter (fun (i : S.intent_node) -> recompute_divergence t i.S.int_dpid) st.S.per_switch

(* --- coverage --- *)

let recompute_coverage t =
  let c = Inv_coverage.snapshot t.model in
  if c <> t.coverage then begin
    ledger_remove t t.coverage;
    ledger_add t c;
    t.coverage <- c
  end

(* A rule that can change table-miss coverage: the priority-0 wildcard
   the coverage invariant looks for. *)
let miss_shaped (r : Flow_table.rule) =
  r.Flow_table.priority = 0 && Of_match.is_wildcard r.Flow_table.match_

(** Re-walk every class in [t.dirty], then clear it. *)
let rewalk t =
  t.walk.Inv_loop.snap <- t.model;
  Hashtbl.iter
    (fun key () ->
      match Flow_key.Hashtbl.find t.classes key with
      | exception Not_found -> ()
      | c ->
        let diags, touched = Inv_loop.walk_class t.walk ~key ~prev:c.ctouched c.entry in
        if diags <> c.cdiags then begin
          ledger_remove t c.cdiags;
          ledger_add t diags
        end;
        c.cdiags <- diags;
        c.ctouched <- touched)
    t.dirty;
  t.n_classes_touched <- t.n_classes_touched + Hashtbl.length t.dirty;
  (* back to its initial size: it allocates again only after a refresh
     or an apply that dirtied many classes grew it *)
  Hashtbl.reset t.dirty

(* Mark the active classes whose packets could match [m]: [m]'s IP
   prefixes, protocol and ports must agree with the class's key, while
   the fields a packet can acquire along its walk (in-port, eth_type,
   MPLS, tunnel id) exclude none.  A match pinning a whole 5-tuple
   names at most one class. *)
let touch_affected t dirty (m : Of_match.t) =
  match (m.Of_match.l4_src, m.Of_match.l4_dst, Of_match.flow_key m) with
  | Some _, Some _, Some key ->
    if Flow_key.Hashtbl.mem t.classes key then Hashtbl.replace dirty key ()
  | _ ->
    let ip (o : Of_match.masked option) addr =
      match o with
      | None -> true
      | Some { Of_match.value; mask } -> Ipv4_addr.to_int addr land mask = value land mask
    in
    let pin o v = match o with None -> true | Some x -> x = v in
    Flow_key.Hashtbl.iter
      (fun (key : Flow_key.t) _ ->
        if
          ip m.Of_match.ip_src key.Flow_key.ip_src
          && ip m.Of_match.ip_dst key.Flow_key.ip_dst
          && pin m.Of_match.ip_proto key.Flow_key.proto
          && pin m.Of_match.l4_src key.Flow_key.l4_src
          && pin m.Of_match.l4_dst key.Flow_key.l4_dst
        then Hashtbl.replace dirty key ())
      t.classes

(** Classes whose last walk crossed [dpid]. *)
let classes_touching t dirty dpid =
  Flow_key.Hashtbl.iter
    (fun key c -> if List.mem dpid c.ctouched then Hashtbl.replace dirty key ())
    t.classes

(* Reconcile the ledger churn since the last settle: stamp findings
   whose refcount went 0->n as new first sightings, drop stamps for
   findings that cleared (so a reappearance is a new sighting), and
   rebuild [current] from the stamps, whose keys are now exactly the
   ledger's — already deduped and in [D.compare] order, exactly what
   [D.normalize] produced from the old full gather. *)
let settle t ~now =
  if not (DMap.is_empty t.changed) then begin
    DMap.iter
      (fun d () ->
        if DMap.mem d t.ledger then begin
          if not (DMap.mem d t.first_seen) then begin
            t.first_seen <- DMap.add d now t.first_seen;
            t.n_violations <- t.n_violations + 1
          end
        end
        else t.first_seen <- DMap.remove d t.first_seen)
      t.changed;
    t.changed <- DMap.empty;
    t.current <-
      List.rev (DMap.fold (fun d at acc -> D.with_first_at at d :: acc) t.first_seen [])
  end

(* ------------------------------------------------------------------ *)

let record_latency t dt =
  t.lat.(t.lat_total mod lat_cap) <- dt;
  t.lat_total <- t.lat_total + 1

let refresh_edges t = t.edges <- Inv_loop.edge_ports t.model

(** Drop every cache and rebuild from [snap] — the big hammer behind
    {!create} and {!refresh}. *)
let reseed_all t dirty snap =
  (* the local caches retract against the tables they were built on *)
  retract_all_local t;
  t.model <- snap;
  Flow_key.Hashtbl.iter (fun _ c -> ledger_remove t c.cdiags) t.classes;
  Flow_key.Hashtbl.reset t.classes;
  Flow_key.Hashtbl.reset t.refs;
  t.known <- universe Inv_loop.max_seed_keys;
  t.orphan <- universe Inv_loop.max_orphan_keys;
  Hashtbl.reset dirty;
  t.hosts <- Inv_loop.host_index t.model;
  refresh_edges t;
  t.host_keys <- Flow_key.Set.of_list (Inv_loop.host_pair_keys t.model);
  Flow_key.Set.iter (fun k -> ref_key t dirty k) t.host_keys;
  List.iter
    (fun (n : S.node) ->
      List.iter
        (fun (_, c) ->
          Classifier.fold
            (fun (r : Flow_table.rule) () ->
              Option.iter (ref_key t dirty) (Of_match.flow_key r.Flow_table.match_))
            c ())
        n.S.tables)
    snap.S.nodes;
  build_all_local t;
  ledger_remove t t.coverage;
  t.coverage <- Inv_coverage.snapshot snap;
  ledger_add t t.coverage;
  recompute_all_divergence t

(* Fold one table's rule delta into its classifier, the class universe
   and every per-invariant cache — O(delta) except where an environment
   shift (an empty<->nonempty flip, a miss-rule change) forces a scoped
   rebuild. *)
let table_delta t dirty ~dpid ~table_id ~added ~removed =
  match S.node t.model dpid with
  | None -> ()
  | Some n ->
    let n, c = classifier t n table_id in
    let was_empty = Classifier.is_empty c in
    (* Normalize against the classifier: removing an absent slot (say, a
       sweep reaping a rule a refresh already dropped) is a no-op, and
       adding over a live slot is a replace — retract the stored rule,
       then grade the new one.  A live node's cache ledgers each rule's
       shadow pairs after the rule enters the classifier and retracts
       them before it leaves, one rule at a time, so each pair enters
       and leaves once. *)
    let shadow = match Hashtbl.find_opt t.local dpid with Some lc -> lc.live | None -> false in
    let take (r : Flow_table.rule) =
      match Classifier.find c ~priority:r.Flow_table.priority r.Flow_table.match_ with
      | None -> None
      | Some old ->
        if shadow then ledger_remove t (Inv_shadow.pairs n ~table_id c old);
        Classifier.remove c old;
        Some old
    in
    let removed = List.filter_map take removed in
    let replaced = List.filter_map take added in
    List.iter
      (fun r ->
        Classifier.add c r;
        if shadow then ledger_add t (Inv_shadow.pairs n ~table_id c r))
      added;
    let removed = replaced @ removed in
    if added <> [] || removed <> [] then begin
      (* universe: additions before removals, so a replace keeps its
         key's refcount above zero throughout (no activation churn) *)
      List.iter
        (fun (r : Flow_table.rule) ->
          Option.iter (ref_key t dirty) (Of_match.flow_key r.Flow_table.match_))
        added;
      List.iter
        (fun (r : Flow_table.rule) ->
          Option.iter (unref_key t dirty) (Of_match.flow_key r.Flow_table.match_))
        removed;
      List.iter
        (fun (r : Flow_table.rule) -> touch_affected t dirty r.Flow_table.match_)
        (added @ removed);
      (* local invariants, delta-driven *)
      (match Hashtbl.find_opt t.local dpid with
      | None -> Hashtbl.replace t.local dpid (build_local t n)
      | Some lc ->
        if not n.S.failed then begin
          if was_empty <> Classifier.is_empty c then
            (* an empty<->nonempty flip regrades gotos into this table
               from the node's other tables *)
            rebuild_blackhole t lc n
          else begin
            List.iter (fun r -> bh_remove t lc ~table_id r) removed;
            List.iter (fun r -> bh_rule t lc n ~table_id r) added
          end
        end);
      if table_id = 0 && List.exists miss_shaped (added @ removed) then
        recompute_coverage t;
      recompute_divergence t dpid
    end

let apply_update t dirty u =
  match u with
  | Table_delta { dpid; table_id; added; removed } ->
    table_delta t dirty ~dpid ~table_id ~added ~removed
  | Groups { dpid; groups } -> (
    match S.node t.model dpid with
    | None -> ()
    | Some n ->
      set_node t { n with S.groups };
      classes_touching t dirty dpid;
      (match S.node t.model dpid with
      | Some n' when not n'.S.failed -> (
        match Hashtbl.find_opt t.local dpid with
        | None -> Hashtbl.replace t.local dpid (build_local t n')
        | Some lc ->
          let grp = Inv_group.node t.model n' in
          if grp <> lc.lc_grp then begin
            ledger_remove t lc.lc_grp;
            ledger_add t grp;
            lc.lc_grp <- grp
          end;
          (* rules may point at groups that just (dis)appeared *)
          rebuild_blackhole t lc n')
      | _ -> ());
      recompute_divergence t dpid)
  | Ports { dpid; ports; failed } -> (
    match S.node t.model dpid with
    | None -> ()
    | Some n ->
      set_node t { n with S.ports; S.failed };
      classes_touching t dirty dpid;
      let edges = Inv_loop.edge_ports t.model in
      if edges <> t.edges then begin
        t.edges <- edges;
        Flow_key.Hashtbl.iter
          (fun key c ->
            if not (Inv_loop.is_known t.hosts key) then begin
              c.entry <- edges;
              Hashtbl.replace dirty key ()
            end)
          t.classes
      end;
      retract_all_local t;
      build_all_local t;
      recompute_coverage t;
      recompute_divergence t dpid)
  | Intents { dpid; store } -> (
    match t.model.S.intents with
    | None -> ()
    | Some st ->
      if not (List.exists (fun (i : S.intent_node) -> i.S.int_dpid = dpid) st.S.per_switch)
      then begin
        (* a switch's first intents: the reliable layer registered it
           since the last capture *)
        let per_switch =
          List.merge
            (fun (a : S.intent_node) b -> Int.compare a.S.int_dpid b.S.int_dpid)
            st.S.per_switch
            [ { S.int_dpid = dpid; int_store = store } ]
        in
        t.model <- { t.model with S.intents = Some { st with S.per_switch } }
      end;
      recompute_divergence t dpid)

let due_divergence t ~now =
  match t.model.S.intents with
  | None -> ()
  | Some st ->
    let due =
      Hashtbl.fold
        (fun d stamp acc -> if now -. stamp >= st.S.grace then d :: acc else acc)
        t.div_deadlines []
    in
    List.iter (recompute_divergence t) due

let apply t ~now u =
  let t0 = Unix.gettimeofday () in
  t.model <- { t.model with S.now = now };
  due_divergence t ~now;
  apply_update t t.dirty u;
  rewalk t;
  settle t ~now;
  t.n_updates <- t.n_updates + 1;
  record_latency t (Unix.gettimeofday () -. t0);
  t.current

let create ?(now = 0.0) snap =
  let t =
    { model = snap;
      refs = Flow_key.Hashtbl.create 256;
      host_keys = Flow_key.Set.empty;
      hosts = Hashtbl.create 64;
      edges = [];
      known = universe Inv_loop.max_seed_keys;
      orphan = universe Inv_loop.max_orphan_keys;
      classes = Flow_key.Hashtbl.create 256;
      dirty = Hashtbl.create 8;
      walk = Inv_loop.make_env snap;
      local = Hashtbl.create 64;
      coverage = [];
      div = Hashtbl.create 16;
      div_deadlines = Hashtbl.create 16;
      ledger = DMap.empty;
      changed = DMap.empty;
      first_seen = DMap.empty;
      current = [];
      n_updates = 0;
      n_classes_touched = 0;
      n_violations = 0;
      n_equiv_checks = 0;
      n_equiv_mismatches = 0;
      lat = Array.make lat_cap 0.0;
      lat_total = 0 }
  in
  reseed_all t t.dirty { snap with S.now = now };
  rewalk t;
  settle t ~now;
  t

(** Full resync against a freshly captured snapshot — the post-recovery
    resync and run-end check use it to fold in events no tap covers
    (link flaps, lazy rule expiry, joins, overlay membership). *)
let refresh t ~now snap =
  reseed_all t t.dirty { snap with S.now = now };
  rewalk t;
  settle t ~now

let diagnostics t = t.current

let class_count t = Flow_key.Hashtbl.length t.classes

(** Audit: does the incremental diagnostic set equal a fresh
    whole-snapshot rescan of the same model?  (Equality modulo
    [first_at], which the rescan cannot know.) *)
let check_equivalence t =
  let full = Checker.check (model t) in
  let ok =
    List.compare_lengths full t.current = 0
    && List.for_all2 (fun a b -> D.compare a b = 0) full t.current
  in
  t.n_equiv_checks <- t.n_equiv_checks + 1;
  if not ok then t.n_equiv_mismatches <- t.n_equiv_mismatches + 1;
  ok

let percentile t q =
  let n = min t.lat_total lat_cap in
  if n = 0 then 0.0
  else begin
    let a = Array.sub t.lat 0 n in
    Array.sort compare a;
    let i = int_of_float (q *. float_of_int (n - 1)) in
    a.(max 0 (min (n - 1) i))
  end

let stats t =
  { updates = t.n_updates;
    classes_touched = t.n_classes_touched;
    class_count = class_count t;
    violations_seen = t.n_violations;
    equiv_checks = t.n_equiv_checks;
    equiv_mismatches = t.n_equiv_mismatches;
    p50_us = percentile t 0.5 *. 1e6;
    p99_us = percentile t 0.99 *. 1e6 }
