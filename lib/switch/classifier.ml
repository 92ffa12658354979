(** A tuple-space classifier over flow rules: the one rule index behind
    every datapath flow table and every table of a verifier snapshot.

    Layout: tuple-space search, the Open vSwitch classifier ("Packet
    Classification using Tuple Space Search", SIGCOMM '99; "The Design
    and Implementation of Open vSwitch", NSDI '15).  Rules live in
    per-priority buckets (descending priority order).  A bucket holds
    one subtable per mask shape — the fields a match pins plus its IP
    masks — in creation order.  Each rule sits in exactly one subtable.

    A subtable keeps its rules in a {!Scotch_util.Open_index}: a dense
    array in install order, a removed rule's entry becoming the shared
    [vacant] sentinel, and an open-addressed [int array] (linear
    probing, Robin Hood placement) mapping each rule's hash to its
    position.  One hash function mixes every field the shape pins, IPs
    masked by the shape, from whatever holds the values: a stored
    match, a packet (the datapath lookup) or a finer query match seen
    through the shape (the cover queries).  No key is built, so a probe
    allocates nothing; equality is checked field by field.  Vacated
    entries stay until the subtable is repacked, which keeps install
    order and happens when the array is full, when vacated entries
    outnumber live ones, and in {!compact}.

    Rule order: descending priority, then subtable creation order, then
    install order, a replaced rule taking the newer position.  {!fold},
    {!to_list}, {!remove_where} and {!fold_covered}'s scan follow it;
    nothing depends on hashing.  Within a priority a lookup picks the
    first matching rule in {!precedence} order.  A rule can only cover
    rules of a shape at least as fine as its own, so the cover queries
    probe or scan just the subtables of related shapes.  Removal leaves
    empty subtables and buckets in place until {!compact}. *)

open Scotch_openflow
open Scotch_packet
module Ix = Scotch_util.Open_index

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

(* The rules of one priority sharing one mask shape, in install order.
   The store's tag is the shape: the first rule's match, whose present
   fields and IP masks are the subtable's and whose values are not
   read. *)
type subtable = (Of_match.t, rule) Ix.t

type bucket = {
  bpriority : int;
  mutable subtables : subtable list; (* creation order *)
}

type t = {
  mutable buckets : bucket list; (* descending priority *)
  mutable count : int;
}

(* A removed rule's entry, compared with [==]; also "no rule" in a
   lookup's running best and what a miss returns. *)
let vacant =
  { priority = min_int; match_ = Of_match.wildcard; instructions = []; idle_timeout = 0.0;
    hard_timeout = 0.0; cookie = 0L; installed_at = 0.0; last_used = 0.0; packet_count = 0;
    byte_count = 0 }

(* "No such bucket" for the searches below ("no such subtable",
   [nowhere], is made with the subtables further down). *)
let no_bucket = { bpriority = min_int; subtables = [] }

let create () = { buckets = []; count = 0 }

let length t = t.count

let is_empty t = t.count = 0

let expired ~now r =
  (r.hard_timeout > 0.0 && now -. r.installed_at >= r.hard_timeout)
  || (r.idle_timeout > 0.0 && now -. r.last_used >= r.idle_timeout)

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
  && pins a.Of_match.tunnel_id b.Of_match.tunnel_id

(* Does every rule of shape [a] constrain at most what one of shape [b]
   does — each field [a] pins pinned by [b], each IP mask of [a] inside
   [b]'s?  Only then can a rule of shape [a] cover one of shape [b]. *)
let coarser (a : Of_match.t) (b : Of_match.t) =
  let pins x y = Option.is_none x || Option.is_some y in
  let ip (x : Of_match.masked option) (y : Of_match.masked option) =
    match (x, y) with
    | None, _ -> true
    | Some _, None -> false
    | Some x, Some y -> x.Of_match.mask land y.Of_match.mask = x.Of_match.mask
  in
  pins a.Of_match.in_port b.Of_match.in_port
  && pins a.Of_match.eth_type b.Of_match.eth_type
  && ip a.Of_match.ip_src b.Of_match.ip_src
  && ip a.Of_match.ip_dst b.Of_match.ip_dst
  && pins a.Of_match.ip_proto b.Of_match.ip_proto
  && pins a.Of_match.l4_src b.Of_match.l4_src
  && pins a.Of_match.l4_dst b.Of_match.l4_dst
  && pins a.Of_match.mpls_label b.Of_match.mpls_label
  && pins a.Of_match.tunnel_id b.Of_match.tunnel_id

(* ------------------------------------------------------------------ *)
(* The hash and the field check.  Both take the values as plain ints,
   so a stored match, a packet and a query match pass theirs without
   building a key; a field the shape leaves free is ignored. *)

(* 32 bits hashed from the values in the fields [shape] pins, IPs
   masked as [shape] masks them. *)
let hash (shape : Of_match.t) ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls
    ~tunnel =
  let pin o h v = match o with None -> h | Some _ -> Ix.mix h v in
  let ip (o : Of_match.masked option) h v =
    match o with None -> h | Some { Of_match.mask; _ } -> Ix.mix h (v land mask)
  in
  let h = Ix.seed in
  let h = pin shape.Of_match.in_port h in_port in
  let h = pin shape.Of_match.eth_type h eth_type in
  let h = ip shape.Of_match.ip_src h ip_src in
  let h = ip shape.Of_match.ip_dst h ip_dst in
  let h = pin shape.Of_match.ip_proto h proto in
  let h = pin shape.Of_match.l4_src h l4_src in
  let h = pin shape.Of_match.l4_dst h l4_dst in
  let h = pin shape.Of_match.mpls_label h mpls in
  let h = pin shape.Of_match.tunnel_id h tunnel in
  Ix.finish h

(* Does stored match [m] hold these values in each field it pins, IPs
   compared under [m]'s masks? *)
let holds (m : Of_match.t) ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls
    ~tunnel =
  let pin (o : int option) v = match o with None -> true | Some x -> Int.equal x v in
  let ip (o : Of_match.masked option) v =
    match o with None -> true | Some { Of_match.value; mask } -> Int.equal value (v land mask)
  in
  pin m.Of_match.in_port in_port
  && pin m.Of_match.eth_type eth_type
  && ip m.Of_match.ip_src ip_src
  && ip m.Of_match.ip_dst ip_dst
  && pin m.Of_match.ip_proto proto
  && pin m.Of_match.l4_src l4_src
  && pin m.Of_match.l4_dst l4_dst
  && pin m.Of_match.mpls_label mpls
  && pin m.Of_match.tunnel_id tunnel

(* A match's value in a field, 0 when it leaves the field free. *)
let value (o : int option) = match o with Some v -> v | None -> 0
let ip_value (o : Of_match.masked option) = match o with Some m -> m.Of_match.value | None -> 0

(* A stored rule's hash in a subtable of shape [shape]. *)
let hash_rule shape r =
  let m = r.match_ in
  hash shape ~in_port:(value m.Of_match.in_port) ~eth_type:(value m.Of_match.eth_type)
    ~ip_src:(ip_value m.Of_match.ip_src) ~ip_dst:(ip_value m.Of_match.ip_dst)
    ~proto:(value m.Of_match.ip_proto) ~l4_src:(value m.Of_match.l4_src)
    ~l4_dst:(value m.Of_match.l4_dst) ~mpls:(value m.Of_match.mpls_label)
    ~tunnel:(value m.Of_match.tunnel_id)

(* ------------------------------------------------------------------ *)
(* Probing *)

(* The position of the held rule whose pinned fields hold these values,
   or -1: the candidates of hash [h] from slot [s] on, checked field by
   field.  Direct recursion, so a probe allocates no closure. *)
let rec find_from st h s ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls
    ~tunnel =
  if s < 0 then -1
  else
    let pos = Ix.position st s in
    let r = st.Ix.entries.(pos) in
    if
      r != vacant
      && holds r.match_ ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls ~tunnel
    then pos
    else
      find_from st h (Ix.probe_next st h s) ~in_port ~eth_type ~ip_src ~ip_dst ~proto
        ~l4_src ~l4_dst ~mpls ~tunnel

let find_pos st ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls ~tunnel =
  let h = hash st.Ix.tag ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls ~tunnel in
  find_from st h (Ix.probe st h) ~in_port ~eth_type ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst ~mpls
    ~tunnel

(* The position of the rule keyed by [m] seen through [st]'s shape —
   [m]'s own slot when the shapes are the same, the one rule that can
   cover [m] when [st]'s is coarser — or -1. *)
let pos_of_match st (m : Of_match.t) =
  find_pos st ~in_port:(value m.Of_match.in_port) ~eth_type:(value m.Of_match.eth_type)
    ~ip_src:(ip_value m.Of_match.ip_src) ~ip_dst:(ip_value m.Of_match.ip_dst)
    ~proto:(value m.Of_match.ip_proto) ~l4_src:(value m.Of_match.l4_src)
    ~l4_dst:(value m.Of_match.l4_dst) ~mpls:(value m.Of_match.mpls_label)
    ~tunnel:(value m.Of_match.tunnel_id)

(* The position of the rule matching packet [p] arriving on [in_port]
   (through tunnel [tunnel_id]), or -1.  A pinned encapsulation or
   tunnel the packet lacks misses, as {!Of_match.matches} does. *)
let pos_of_packet st ~in_port ~tunnel_id (p : Packet.t) =
  let sh = st.Ix.tag in
  let outer = p.Packet.encaps in
  let lacks pinned present = Option.is_some pinned && not present in
  if
    lacks sh.Of_match.mpls_label (match outer with Headers.Encap.Mpls _ :: _ -> true | _ -> false)
    || lacks sh.Of_match.tunnel_id (Option.is_some tunnel_id)
  then -1
  else
    let l4 = p.Packet.l4 in
    find_pos st ~in_port ~eth_type:p.Packet.eth.Headers.Ethernet.ethertype
      ~ip_src:p.Packet.ip.Headers.Ipv4.src ~ip_dst:p.Packet.ip.Headers.Ipv4.dst
      ~proto:(Headers.L4.proto l4) ~l4_src:(Headers.L4.src_port l4)
      ~l4_dst:(Headers.L4.dst_port l4)
      ~mpls:(match outer with Headers.Encap.Mpls { label } :: _ -> label | _ -> 0)
      ~tunnel:(value tunnel_id)

(* ------------------------------------------------------------------ *)
(* Subtable storage *)

let subtable shape : subtable = Ix.create ~tag:shape ~vacant ~hash:hash_rule

(* Probing [nowhere] finds nothing, and it is never written. *)
let nowhere = subtable Of_match.wildcard

let rule_at (st : subtable) pos = st.Ix.entries.(pos)

(* ------------------------------------------------------------------ *)
(* Buckets *)

(* Direct recursion, so finding a slot allocates no closure. *)
let rec find_bucket priority = function
  | [] -> no_bucket
  | b :: rest -> if b.bpriority = priority then b else find_bucket priority rest

let rec find_subtable match_ = function
  | [] -> nowhere
  | st :: rest -> if same_shape st.Ix.tag match_ then st else find_subtable match_ rest

(* The subtable holding slot ([priority], [match_]); [nowhere] if none. *)
let slot t ~priority match_ = find_subtable match_ (find_bucket priority t.buckets).subtables

(* The subtable [match_] belongs in, created (with its bucket) if new. *)
let subtable_for t ~priority match_ =
  let b =
    match find_bucket priority t.buckets with
    | b when b != no_bucket -> b
    | _ ->
      let b = { bpriority = priority; subtables = [] } in
      let rec place = function
        | [] -> [ b ]
        | x :: rest when x.bpriority > priority -> x :: place rest
        | rest -> b :: rest
      in
      t.buckets <- place t.buckets;
      b
  in
  match find_subtable match_ b.subtables with
  | st when st != nowhere -> st
  | _ ->
    let st = subtable match_ in
    b.subtables <- b.subtables @ [ st ];
    st

let find t ~priority match_ =
  let st = slot t ~priority match_ in
  match pos_of_match st match_ with -1 -> None | pos -> Some (rule_at st pos)

let find_all t match_ =
  List.filter_map
    (fun b ->
      let st = find_subtable match_ b.subtables in
      match pos_of_match st match_ with -1 -> None | pos -> Some (rule_at st pos))
    t.buckets

let add t r =
  Ix.append (subtable_for t ~priority:r.priority r.match_) r;
  t.count <- t.count + 1

let remove t r =
  let st = slot t ~priority:r.priority r.match_ in
  match pos_of_match st r.match_ with
  | -1 -> ()
  | pos ->
    Ix.vacate st pos;
    t.count <- t.count - 1;
    Ix.tidy_if_sparse st

(* Store [r], displacing the rule in its slot, if any. *)
let displace t st r =
  (match pos_of_match st r.match_ with
  | -1 -> t.count <- t.count + 1
  | pos -> Ix.vacate st pos);
  Ix.append st r

(* Two passes over the list: the first makes the subtables and counts
   each one's rules, the second fills each, sized exactly.  Consecutive
   rules mostly share a subtable, so the previous one (and its count)
   is kept at hand rather than searched for. *)
let of_list rules =
  let t = create () in
  let each f =
    let prev = ref nowhere and prio = ref 0 in
    List.iter
      (fun r ->
        let st =
          if !prev != nowhere && r.priority = !prio && same_shape !prev.Ix.tag r.match_ then !prev
          else subtable_for t ~priority:r.priority r.match_
        in
        prev := st;
        prio := r.priority;
        f st r)
      rules
  in
  let counts = ref [] and last = ref nowhere and count = ref (ref 0) in
  each (fun st _ ->
      if st != !last then begin
        last := st;
        count :=
          match List.assq_opt st !counts with
          | Some n -> n
          | None ->
            let n = ref 0 in
            counts := (st, n) :: !counts;
            n
      end;
      incr !count);
  List.iter (fun (st, n) -> Ix.reserve st !n) !counts;
  each (displace t);
  t

(* The rules [dead] selects in [st], vacated and consed onto [acc]
   last first. *)
let reap dead st acc =
  let acc = ref acc in
  for pos = 0 to st.Ix.used - 1 do
    let r = rule_at st pos in
    if r != vacant && dead r then begin
      Ix.vacate st pos;
      acc := r :: !acc
    end
  done;
  Ix.tidy_if_sparse st;
  !acc

let remove_where t dead =
  let doomed =
    List.fold_left
      (fun acc b -> List.fold_left (fun acc st -> reap dead st acc) acc b.subtables)
      [] t.buckets
  in
  t.count <- t.count - List.length doomed;
  List.rev doomed

let compact t =
  t.buckets <-
    List.filter_map
      (fun b ->
        b.subtables <-
          List.filter
            (fun st ->
              if st.Ix.used > st.Ix.live && st.Ix.live > 0 then Ix.tidy st;
              st.Ix.live > 0)
            b.subtables;
        match b.subtables with [] -> None | _ -> Some b)
      t.buckets

(* The bucket's pick for the packet: one probe per subtable, the first
   live hit in {!precedence} order, [vacant] for none. *)
let rec best_in ~now ~in_port ~tunnel_id p best = function
  | [] -> best
  | st :: rest ->
    let best =
      if st.Ix.live = 0 then best
      else
        match pos_of_packet st ~in_port ~tunnel_id p with
        | -1 -> best
        | pos ->
          let r = rule_at st pos in
          if expired ~now r || (best != vacant && precedence best r < 0) then best else r
    in
    best_in ~now ~in_port ~tunnel_id p best rest

let rec first_hit ~now ~in_port ~tunnel_id p = function
  | [] -> vacant
  | b :: rest ->
    let r = best_in ~now ~in_port ~tunnel_id p vacant b.subtables in
    if r != vacant then r else first_hit ~now ~in_port ~tunnel_id p rest

let lookup t ~now ~in_port ~tunnel_id p = first_hit ~now ~in_port ~tunnel_id p t.buckets

(* A covering rule in a subtable is the one keyed by [m] seen through
   the subtable's shape: one probe, and none into a shape that is not
   [coarser] than [m]'s.  Direct recursion, so the rescan's query per
   rule allocates no closure. *)
let rec covering_in f m acc = function
  | [] -> acc
  | st :: rest ->
    let acc =
      if st.Ix.live = 0 || not (coarser st.Ix.tag m) then acc
      else match pos_of_match st m with -1 -> acc | pos -> f (rule_at st pos) acc
    in
    covering_in f m acc rest

let rec covering_above f (r : rule) acc = function
  | b :: rest when b.bpriority > r.priority ->
    covering_above f r (covering_in f r.match_ acc b.subtables) rest
  | _ -> acc

let fold_covering f t r acc = covering_above f r acc t.buckets

(* A rule [r] covers has [r]'s shape, and then [r]'s own match, or a
   strictly finer shape, which is scanned in install order. *)
let fold_covered f t (r : rule) acc =
  let m = r.match_ in
  let scan acc st =
    if st.Ix.live = 0 || not (coarser m st.Ix.tag) then acc
    else if coarser st.Ix.tag m then
      match pos_of_match st m with -1 -> acc | pos -> f (rule_at st pos) acc
    else begin
      let acc = ref acc in
      for pos = 0 to st.Ix.used - 1 do
        let l = rule_at st pos in
        if l != vacant && Of_match.covers m l.match_ then acc := f l !acc
      done;
      !acc
    end
  in
  List.fold_left
    (fun acc b -> if b.bpriority < r.priority then List.fold_left scan acc b.subtables else acc)
    acc t.buckets

let fold f t acc =
  List.fold_right
    (fun b acc ->
      List.fold_right
        (fun st acc ->
          let acc = ref acc in
          for pos = st.Ix.used - 1 downto 0 do
            let r = rule_at st pos in
            if r != vacant then acc := f r !acc
          done;
          !acc)
        b.subtables acc)
    t.buckets acc

let to_list t = fold List.cons t []

let longest_probe t =
  List.fold_left
    (fun acc b ->
      List.fold_left (fun acc st -> max acc (Ix.longest_probe st)) acc b.subtables)
    0 t.buckets
