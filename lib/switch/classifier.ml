(** A tuple-space classifier over flow rules: the one rule index behind
    every datapath flow table and every table of a verifier snapshot.

    Layout: tuple-space search, the Open vSwitch classifier ("Packet
    Classification using Tuple Space Search", SIGCOMM '99; "The Design
    and Implementation of Open vSwitch", NSDI '15).  Rules live in
    per-priority buckets (descending priority order).  A bucket holds
    one subtable per mask shape — the fields a match pins plus its IP
    masks — and a subtable is a hash table keyed by its rules' own
    matches, whose IP values are already masked ({!Of_match.canonical}).
    Each rule sits in exactly one subtable, so add and remove are one
    hash operation, and a lookup builds the packet's key for each shape
    and makes one probe per subtable.  Within a priority a lookup picks
    the first matching rule in {!precedence} order.  A rule can only
    cover rules of a shape at least as fine as its own, so the cover
    queries probe or scan just the subtables of related shapes.
    Removal leaves empty subtables and buckets in place until
    {!compact}. *)

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

type t = {
  mutable buckets : bucket list; (* descending priority *)
  mutable count : int;
}

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
  && pins a.Of_match.gre_key b.Of_match.gre_key
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
  && pins a.Of_match.gre_key b.Of_match.gre_key
  && pins a.Of_match.tunnel_id b.Of_match.tunnel_id

(* [m] cut down to a [coarser] [shape]: the only key under which a
   subtable of that shape can hold a rule covering [m]. *)
let project (shape : Of_match.t) (m : Of_match.t) : Of_match.t =
  let pin s v = match s with None -> None | Some _ -> v in
  let ip (s : Of_match.masked option) (v : Of_match.masked option) =
    match (s, v) with
    | Some { Of_match.mask; _ }, Some v ->
      Some { Of_match.value = v.Of_match.value land mask; mask }
    | _ -> None
  in
  { Of_match.in_port = pin shape.Of_match.in_port m.Of_match.in_port;
    eth_type = pin shape.Of_match.eth_type m.Of_match.eth_type;
    ip_src = ip shape.Of_match.ip_src m.Of_match.ip_src;
    ip_dst = ip shape.Of_match.ip_dst m.Of_match.ip_dst;
    ip_proto = pin shape.Of_match.ip_proto m.Of_match.ip_proto;
    l4_src = pin shape.Of_match.l4_src m.Of_match.l4_src;
    l4_dst = pin shape.Of_match.l4_dst m.Of_match.l4_dst;
    mpls_label = pin shape.Of_match.mpls_label m.Of_match.mpls_label;
    gre_key = pin shape.Of_match.gre_key m.Of_match.gre_key;
    tunnel_id = pin shape.Of_match.tunnel_id m.Of_match.tunnel_id }

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

(* Direct recursion, so finding a slot allocates no closure. *)
let rec find_bucket priority = function
  | [] -> None
  | b :: rest -> if b.bpriority = priority then Some b else find_bucket priority rest

let rec find_subtable match_ = function
  | [] -> None
  | st :: rest -> if same_shape st.shape match_ then Some st else find_subtable match_ rest

(* The subtable [match_] belongs in, created (with its bucket, and with
   room for [size] rules) if new. *)
let subtable_for t ~size ~priority match_ =
  let b =
    match find_bucket priority t.buckets with
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
  match find_subtable match_ b.subtables with
  | Some st -> st
  | None ->
    let st = { shape = match_; rules = Hashtbl.create size } in
    b.subtables <- b.subtables @ [ st ];
    st

let find t ~priority match_ =
  match find_bucket priority t.buckets with
  | None -> None
  | Some b -> (
    match find_subtable match_ b.subtables with
    | None -> None
    | Some st -> Hashtbl.find_opt st.rules match_)

let find_all t match_ =
  List.filter_map
    (fun b ->
      match find_subtable match_ b.subtables with
      | None -> None
      | Some st -> Hashtbl.find_opt st.rules match_)
    t.buckets

let add t r =
  Hashtbl.replace (subtable_for t ~size:16 ~priority:r.priority r.match_).rules r.match_ r;
  t.count <- t.count + 1

let remove t r =
  match find_bucket r.priority t.buckets with
  | None -> ()
  | Some b -> (
    match find_subtable r.match_ b.subtables with
    | Some st when Hashtbl.mem st.rules r.match_ ->
      Hashtbl.remove st.rules r.match_;
      t.count <- t.count - 1
    | Some _ | None -> ())

(* One pass over a list in descending priority, the snapshot's order:
   consecutive rules mostly share a bucket and a subtable, so both are
   kept at hand rather than searched for. *)
let of_list rules =
  let t = create () in
  (* [st] is the previous rule's subtable, at priority [prio]; a
     subtable made for [left] more rules holds them without a resize *)
  let rec go left prio st = function
    | [] -> ()
    | r :: rest ->
      let st =
        if r.priority = prio && same_shape st.shape r.match_ then st
        else subtable_for t ~size:(max 16 (left / 2)) ~priority:r.priority r.match_
      in
      Hashtbl.replace st.rules r.match_ r;
      go (left - 1) r.priority st rest
  in
  (match rules with
  | [] -> ()
  | r :: _ ->
    let n = List.length rules in
    go n r.priority (subtable_for t ~size:(max 16 (n / 2)) ~priority:r.priority r.match_) rules);
  t.count <-
    List.fold_left
      (fun n b -> List.fold_left (fun n st -> n + Hashtbl.length st.rules) n b.subtables)
      0 t.buckets;
  t

let remove_where t dead =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun st ->
          let doomed = Hashtbl.fold (fun _ r acc -> if dead r then r :: acc else acc) st.rules [] in
          List.iter (fun r -> Hashtbl.remove st.rules r.match_) doomed;
          t.count <- t.count - List.length doomed;
          doomed)
        b.subtables)
    t.buckets

let compact t =
  t.buckets <-
    List.filter_map
      (fun b ->
        b.subtables <- List.filter (fun st -> Hashtbl.length st.rules > 0) b.subtables;
        match b.subtables with [] -> None | _ -> Some b)
      t.buckets

(* The bucket's pick for [ctx]: one probe per subtable, the first live
   hit in {!precedence} order. *)
let rec best_in ~now ctx key best = function
  | [] -> best
  | st :: rest ->
    let best =
      if Hashtbl.length st.rules = 0 then best
      else
        match Hashtbl.find_opt st.rules (probe_key st.shape ctx key) with
        | Some r as hit when not (expired ~now r) -> (
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

let lookup t ~now (ctx : Of_match.context) =
  match t.buckets with
  | [] -> None
  | buckets -> first_hit ~now ctx (Packet.flow_key ctx.Of_match.packet) buckets

(* A covering rule in a subtable is the one keyed by [m] projected
   onto the subtable's shape: one probe, and none into a shape that is
   not [coarser] than [m]'s.  Direct recursion, so the rescan's query
   per rule allocates no closure. *)
let rec covering_in f m acc = function
  | [] -> acc
  | st :: rest ->
    let acc =
      if Hashtbl.length st.rules = 0 || not (coarser st.shape m) then acc
      else
        let key = if coarser m st.shape then m else project st.shape m in
        match Hashtbl.find_opt st.rules key with Some h -> f h acc | None -> acc
    in
    covering_in f m acc rest

let rec covering_above f (r : rule) acc = function
  | b :: rest when b.bpriority > r.priority ->
    covering_above f r (covering_in f r.match_ acc b.subtables) rest
  | _ -> acc

let fold_covering f t r acc = covering_above f r acc t.buckets

(* A rule [r] covers has [r]'s shape, and then [r]'s own match, or a
   strictly finer shape, which is scanned. *)
let fold_covered f t (r : rule) acc =
  let m = r.match_ in
  let scan acc st =
    if not (coarser m st.shape) then acc
    else if coarser st.shape m then
      match Hashtbl.find_opt st.rules m with Some l -> f l acc | None -> acc
    else
      Hashtbl.fold (fun _ l acc -> if Of_match.covers m l.match_ then f l acc else acc) st.rules acc
  in
  List.fold_left
    (fun acc b -> if b.bpriority < r.priority then List.fold_left scan acc b.subtables else acc)
    acc t.buckets

let fold f t acc =
  List.fold_right
    (fun b acc ->
      List.fold_right (fun st acc -> Hashtbl.fold (fun _ r acc -> f r acc) st.rules acc)
        b.subtables acc)
    t.buckets acc

let to_list t = fold List.cons t []
