(** Invariant: no forwarding loops — the symbolic packet walk.

    Header space is partitioned into flow-key equivalence classes (the
    exact 5-tuples any rule pins, plus a synthetic flow per host pair);
    one forged packet per class is walked through the snapshot's
    pipeline (tables, groups, tunnels with encap/decap) from every
    reachable injection point, and must never revisit a (switch,
    in-port, encap-stack) state.  The walk runs the datapath's own
    interpreter, {!Pipeline}, with a target whose outputs follow each
    port to its peer; its lookups are the datapath's own
    {!Classifier.lookup} into the snapshot node's tables, blind to
    expiry; its tunnel ports {!Packet.encap_tunnel} and
    {!Packet.decap_tunnel}.

    The walk is exposed per class ({!walk_class}) so the incremental
    verifier can re-walk only the classes a delta touches, with the
    set of dpids each walk visited as its dependency footprint, and the
    class universe's parts ({!Capped}, {!host_index}, {!entry_points})
    so its selection of classes is the one {!seeds} makes.

    A clean walk allocates only what the datapath's interpreter needs:
    the class's forged packet and the copies a header push, pop or
    tunnel makes.  Its path is a stack in the reused
    {!env}, and a finding's witness is built from it only on report. *)

open Scotch_openflow
open Scotch_packet
open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "loop"

let max_hops = 64

(** Forge a minimal packet realizing a flow key, so the walk can run
    the datapath's own match and group hash on it. *)
let packet_of_key (key : Flow_key.t) =
  let l4 =
    if key.Flow_key.proto = Headers.Ipv4.proto_tcp then
      Headers.L4.Tcp
        (Headers.Tcp.make ~src_port:key.Flow_key.l4_src ~dst_port:key.Flow_key.l4_dst ())
    else if key.Flow_key.proto = Headers.Ipv4.proto_udp then
      Headers.L4.Udp
        (Headers.Udp.make ~src_port:key.Flow_key.l4_src ~dst_port:key.Flow_key.l4_dst)
    else Headers.L4.Other key.Flow_key.proto
  in
  Packet.make ~flow_id:0 ~created:0.0
    ~eth:
      (Headers.Ethernet.make ~src:(Mac.of_int 0xbeef) ~dst:(Mac.of_int 0xcafe)
         ~ethertype:Headers.Ethernet.ethertype_ipv4)
    ~ip:
      (Headers.Ipv4.make ~src:key.Flow_key.ip_src ~dst:key.Flow_key.ip_dst
         ~proto:key.Flow_key.proto ())
    ~l4 ()

(* The walk keeps its path on a stack: entry [i] of [dpids], [in_ports]
   and [encaps] is the [i]th (dpid, in-port, encap-stack) state of the
   branch being walked, and [steps.(i)] is the reused {!Pipeline} target
   of that state's switch.  A branch writes only entries at and above
   its own depth, so a flood's or a bucket's sibling branches share the
   prefix they both came through. *)
type env = {
  mutable snap : S.t;
  mutable diags : D.t list;
  mutable touched : int array; (* dpids the current class's walks visited *)
  mutable n_touched : int;
  mutable key : Flow_key.t; (* the class being walked *)
  mutable looped : bool; (* the current entry point's walk has looped *)
  dpids : int array;
  in_ports : int array;
  encaps : Headers.Encap.t list array;
  mutable steps : step array;
  mutable deepest : int; (* stack entries the current class wrote *)
}

(** One switch of the path, at [depth] states from the entry point
    (itself included): the target its rule's actions run against. *)
and step = { env : env; depth : int; mutable node : S.node }

(* The node of an unknown dpid: failed, so the walk stops there. *)
let absent =
  { S.dpid = -1; failed = true; num_tables = 0; tables = []; groups = []; ports = [] }

(** [make_env snap] builds a walk environment over [snap]'s tables,
    ports, groups and liveness; setting [snap] points it at another. *)
let make_env snap =
  let env =
    { snap;
      diags = [];
      touched = Array.make 16 0;
      n_touched = 0;
      key = Flow_key.make ~ip_src:(Ipv4_addr.of_int 0) ~ip_dst:(Ipv4_addr.of_int 0) ~proto:0
          ~l4_src:0 ~l4_dst:0 ();
      looped = false;
      dpids = Array.make max_hops 0;
      in_ports = Array.make max_hops 0;
      encaps = Array.make max_hops [];
      steps = [||];
      deepest = 0 }
  in
  env.steps <- Array.init max_hops (fun i -> { env; depth = i + 1; node = absent });
  env

(* Plain recursive loops: finding a hop's node and in-port builds no
   closure and no option. *)
let rec node_of dpid = function
  | [] -> absent
  | (n : S.node) :: rest -> if n.S.dpid = dpid then n else node_of dpid rest

let rec tunnel_of in_port = function
  | [] -> None
  | (p : S.port) :: rest -> if p.S.port_id = in_port then p.S.tunnel else tunnel_of in_port rest

let rec touched_at env dpid i =
  i < env.n_touched && (env.touched.(i) = dpid || touched_at env dpid (i + 1))

let touch env dpid =
  if not (touched_at env dpid 0) then begin
    if env.n_touched = Array.length env.touched then begin
      let a = Array.make (2 * env.n_touched) 0 in
      Array.blit env.touched 0 a 0 env.n_touched;
      env.touched <- a
    end;
    env.touched.(env.n_touched) <- dpid;
    env.n_touched <- env.n_touched + 1
  end

(* Equal encap stacks are exactly the ones that print alike. *)
let rec revisits env ~depth dpid in_port encaps i =
  i < depth
  && ((env.dpids.(i) = dpid && env.in_ports.(i) = in_port && env.encaps.(i) = encaps)
     || revisits env ~depth dpid in_port encaps (i + 1))

(* The path's first [depth] states, oldest first: built only for a
   report. *)
let witness env ~depth =
  let b = Buffer.create 64 in
  Buffer.add_string b (Flow_key.to_string env.key);
  Buffer.add_string b " via ";
  for i = 0 to depth - 1 do
    if i > 0 then Buffer.add_string b " -> ";
    Buffer.add_string b (Printf.sprintf "%d:%d" env.dpids.(i) env.in_ports.(i))
  done;
  Buffer.contents b

(** Report a Loop diagnostic and end the walk: one report per walk is
    enough, a loop revisits its states forever. *)
let report env ~depth ~dpid msg =
  env.looped <- true;
  env.diags <-
    D.make ~dpid ~witness:(witness env ~depth) ~severity:D.Error ~invariant:D.Loop msg
    :: env.diags

(** The walk as a {!Pipeline} target.  Outputs follow the port to its
    peer switch; Packet-Ins, drops and misses end the branch (the
    coverage and blackhole invariants own them); once the walk has
    looped, outputs do nothing. *)
module rec Step : sig
  include Pipeline.TARGET with type t = step

  val arrive : env -> depth:int -> int -> in_port:int -> Packet.t -> unit
end = struct
  type t = step

  (* expiry-blind: the model holds what the tables hold, expired or not *)
  let lookup s ~table_id ~in_port ~tunnel_id pkt =
    if table_id >= s.node.S.num_tables then Flow_table.no_rule
    else
      match S.table s.node table_id with
      | Some c -> Classifier.lookup c ~now:neg_infinity ~in_port ~tunnel_id pkt
      | None -> Flow_table.no_rule

  (* Every dpid the packet arrives at (failed, unknown or not) is
     recorded in [env.touched], so the incremental verifier knows which
     node changes can alter this walk.  [depth] states are on the path
     already. *)
  let rec arrive env ~depth dpid ~in_port pkt =
    touch env dpid;
    if not env.looped then begin
      let n = node_of dpid env.snap.S.nodes in
      if not n.S.failed then begin
        (* tunnel-port arrival: strip the matching outer header and
           surface the tunnel id, as the datapath does *)
        let tunnel_id = tunnel_of in_port n.S.ports in
        let pkt =
          match tunnel_id with
          | Some tid -> Packet.decap_tunnel ~tunnel_id:tid pkt
          | None -> pkt
        in
        if revisits env ~depth dpid in_port pkt.Packet.encaps 0 then
          report env ~depth ~dpid
            (Printf.sprintf "forwarding loop: (dpid %d, in-port %d) revisited" dpid in_port)
        else if depth >= max_hops then
          report env ~depth ~dpid
            (Printf.sprintf "hop budget (%d) exhausted: probable forwarding loop" max_hops)
        else begin
          env.dpids.(depth) <- dpid;
          env.in_ports.(depth) <- in_port;
          env.encaps.(depth) <- pkt.Packet.encaps;
          if depth >= env.deepest then env.deepest <- depth + 1;
          let s = env.steps.(depth) in
          s.node <- n;
          Walk.run_table s ~table_id:0 ~in_port ~tunnel_id pkt
        end
      end
    end

  and transmit s (p : S.port) pkt =
    let pkt =
      match p.S.tunnel with Some tid -> Packet.encap_tunnel ~tunnel_id:tid pkt | None -> pkt
    in
    match p.S.endpoint with
    | S.To_switch { peer; peer_in_port } ->
      arrive s.env ~depth:s.depth peer ~in_port:peer_in_port pkt
    | S.To_host _ | S.Opaque | S.Disconnected -> ()

  let rec emit_on s pid pkt = function
    | [] -> ()
    | (p : S.port) :: rest -> if p.S.port_id = pid then transmit s p pkt else emit_on s pid pkt rest

  let emit s pid pkt = if not s.env.looped then emit_on s pid pkt s.node.S.ports

  let rec flood_on s ~in_port pkt = function
    | [] -> ()
    | (p : S.port) :: rest ->
      if p.S.port_id <> in_port && p.S.tunnel = None then transmit s p pkt;
      flood_on s ~in_port pkt rest

  let flood s ~in_port pkt = if not s.env.looped then flood_on s ~in_port pkt s.node.S.ports

  let to_controller _ ~in_port:_ ~tunnel_id:_ _ _ = ()

  (* an empty group, which only a forged snapshot holds (group sanity
     reports it), executes nothing, as a missing one does *)
  let rec group_in gid = function
    | [] -> None
    | (g : Group_table.group) :: rest ->
      if g.group_id = gid && not (List.is_empty g.buckets) then Some g else group_in gid rest

  let group s gid = group_in gid s.node.S.groups
  let drop _ _ = ()
end

and Walk : sig
  val run_table :
    step -> table_id:int -> in_port:int -> tunnel_id:int option -> Packet.t -> unit
end =
  Pipeline.Make (Step)

let rec all_touched env = function
  | [] -> true
  | d :: rest -> touched_at env d 0 && all_touched env rest

(* [prev] when it holds exactly the dpids the walks touched. *)
let touched_since env prev =
  if List.compare_length_with prev env.n_touched = 0 && all_touched env prev then prev
  else begin
    let a = Array.sub env.touched 0 env.n_touched in
    Array.sort Int.compare a;
    Array.to_list a
  end

let rec walk_from env pkt = function
  | [] -> ()
  | (dpid, in_port) :: rest ->
    env.looped <- false;
    Step.arrive env ~depth:0 dpid ~in_port pkt;
    walk_from env pkt rest

(** Walk one equivalence class from all its injection points, with one
    forged packet; returns its diagnostics and the sorted set of dpids
    the walks visited — [prev] itself when that is the set it holds. *)
let walk_class env ~key ~prev entry_points =
  env.diags <- [];
  env.n_touched <- 0;
  env.key <- key;
  walk_from env (packet_of_key key) entry_points;
  (* drop the stack's hold on the nodes and packets it walked, which a
     later refresh may replace *)
  for i = 0 to env.deepest - 1 do
    env.steps.(i).node <- absent;
    env.encaps.(i) <- []
  done;
  env.deepest <- 0;
  (env.diags, touched_since env prev)

(* ------------------------------------------------------------------ *)
(* The class universe: which flow keys to walk, injected where. *)

(** Caps keeping the walk budget bounded on big snapshots; generous
    multiples of what any current topology produces. *)
let max_seed_keys = 4096

let max_orphan_keys = 128

(** A capped key selection: the [cap] smallest keys offered, in
    {!Flow_key.Set} order.  The incremental verifier offers keys as
    rules pin them, parks what falls out and re-offers it when an active
    key is withdrawn.  The rescan's {!seeds} makes the same selection in
    one pass over the rules' matches ({!select}). *)
module Capped = struct
  type t = {
    cap : int;
    mutable keys : Flow_key.Set.t;
    mutable size : int; (* maintained: Set.cardinal is O(n) *)
  }

  let create cap = { cap; keys = Flow_key.Set.empty; size = 0 }

  (** What an {!offer} pushed out of the selection. *)
  type outcome =
    | Kept  (** the key is in (it may have been already); nothing left *)
    | Rejected  (** the selection is full of smaller keys: the key is out *)
    | Evicted of Flow_key.t  (** the key is in; this former maximum is out *)

  (* a key above a full selection's maximum costs one comparison *)
  let offer c key =
    if c.size >= c.cap && Flow_key.compare key (Flow_key.Set.max_elt c.keys) > 0 then Rejected
    else begin
      let s = Flow_key.Set.add key c.keys in
      if s == c.keys then Kept
      else if c.size < c.cap then begin
        c.keys <- s;
        c.size <- c.size + 1;
        Kept
      end
      else begin
        let mx = Flow_key.Set.max_elt s in
        c.keys <- Flow_key.Set.remove mx s;
        Evicted mx
      end
    end

  (** [withdraw c key] removes [key]; [true] when it was selected. *)
  let withdraw c key =
    let s = Flow_key.Set.remove key c.keys in
    if s == c.keys then false
    else begin
      c.keys <- s;
      c.size <- c.size - 1;
      true
    end
end

(** Hosts by IP.  The first host in [snap.hosts] order wins an IP that
    only a forged snapshot can give two hosts. *)
let host_index snap =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (host : S.host) ->
      if not (Hashtbl.mem h host.S.host_ip) then Hashtbl.add h host.S.host_ip host)
    snap.S.hosts;
  h

(** A key is known when its source IP is a host's. *)
let is_known hosts (key : Flow_key.t) = Hashtbl.mem hosts (Ipv4_addr.to_int key.Flow_key.ip_src)

(** Where a class's packet enters: a known key at its source host's
    port, any other (a spoofed flow) at every edge port, its true
    ingress unknowable. *)
let entry_points hosts ~edges (key : Flow_key.t) =
  match Hashtbl.find_opt hosts (Ipv4_addr.to_int key.Flow_key.ip_src) with
  | Some h -> [ (h.S.attach_dpid, h.S.attach_port) ]
  | None -> edges

(** Synthetic per-(src, dst)-host-pair keys covering paths no reactive
    rule pins yet. *)
let host_pair_keys snap =
  List.concat_map
    (fun (src : S.host) ->
      List.filter_map
        (fun (dst : S.host) ->
          if src.S.host_ip <> dst.S.host_ip then
            Some
              (Flow_key.make
                 ~ip_src:(Ipv4_addr.of_int src.S.host_ip)
                 ~ip_dst:(Ipv4_addr.of_int dst.S.host_ip)
                 ~proto:Headers.Ipv4.proto_tcp ~l4_src:53123 ~l4_dst:80 ())
          else None)
        snap.S.hosts)
    snap.S.hosts

(** Host-facing ports of managed switches: where unattributable
    (spoofed-source) flows can plausibly enter. *)
let edge_ports snap =
  List.concat_map
    (fun (n : S.node) ->
      if List.mem n.S.dpid snap.S.managed then
        List.filter_map
          (fun (p : S.port) ->
            match p.S.endpoint with
            | S.To_host _ -> Some (n.S.dpid, p.S.port_id)
            | _ -> None)
          n.S.ports
      else [])
    snap.S.nodes

(* The audit's selection reads each rule's match in place: the 5-tuple
   it pins ({!Of_match.flow_key}), compared field by field in
   {!Flow_key.compare}'s order, so only the keys it keeps are built. *)

let pins_key (m : Of_match.t) =
  match (m.Of_match.ip_src, m.Of_match.ip_dst, m.Of_match.ip_proto) with
  | Some s, Some d, Some _ ->
    s.Of_match.mask = Ipv4_addr.mask32 && d.Of_match.mask = Ipv4_addr.mask32
  | _ -> false

(* a pinned field as the key holds it: an IP through [Ipv4_addr.of_int],
   an unpinned port as 0 *)
let ip_of = function
  | Some (a : Of_match.masked) -> a.Of_match.value land Ipv4_addr.mask32
  | None -> 0

let port_of = function Some p -> p | None -> 0

let compare_pinned (a : Of_match.t) (b : Of_match.t) =
  let c = compare (ip_of a.Of_match.ip_src) (ip_of b.Of_match.ip_src) in
  if c <> 0 then c
  else
    let c = compare (ip_of a.Of_match.ip_dst) (ip_of b.Of_match.ip_dst) in
    if c <> 0 then c
    else
      let c = compare (port_of a.Of_match.ip_proto) (port_of b.Of_match.ip_proto) in
      if c <> 0 then c
      else
        let c = compare (port_of a.Of_match.l4_src) (port_of b.Of_match.l4_src) in
        if c <> 0 then c else compare (port_of a.Of_match.l4_dst) (port_of b.Of_match.l4_dst)

(* {!Capped.offer} over pinning matches, batched: matches below the
   current bound collect in a buffer of up to [2 * cap]; a full buffer
   is sorted in place and cut to its [cap] smallest distinct matches,
   whose largest becomes the bound once there are [cap] of them.  A
   match at or above the bound costs one comparison and no
   allocation. *)
type pick = {
  cap : int;
  mutable buf : Of_match.t array;
  mutable used : int;
  mutable bounded : bool;
  mutable bound : Of_match.t; (* the [cap]th smallest so far, once [bounded] *)
}

let pick_create cap =
  { cap; buf = [||]; used = 0; bounded = false; bound = Of_match.wildcard }

(* Sort [p.buf]'s first [p.used] entries (all of them, or a copy) and
   keep their first [cap] distinct ones at the front. *)
let compact p =
  let a = if p.used = Array.length p.buf then p.buf else Array.sub p.buf 0 p.used in
  Array.sort compare_pinned a;
  let kept = ref 0 in
  Array.iteri
    (fun i m ->
      if !kept < p.cap && (i = 0 || compare_pinned a.(i - 1) m <> 0) then begin
        p.buf.(!kept) <- m;
        incr kept
      end)
    a;
  p.used <- !kept;
  if !kept = p.cap then begin
    p.bounded <- true;
    p.bound <- p.buf.(!kept - 1)
  end

let pick p m =
  if not (p.bounded && compare_pinned m p.bound >= 0) then begin
    if p.used = Array.length p.buf then
      if p.used < 2 * p.cap then begin
        let grown = Array.make (min (2 * p.cap) (max 16 (2 * p.used))) Of_match.wildcard in
        Array.blit p.buf 0 grown 0 p.used;
        p.buf <- grown
      end
      else compact p;
    (* a compaction that bounded the selection may have put [m] above it *)
    if not (p.bounded && compare_pinned m p.bound >= 0) then begin
      p.buf.(p.used) <- m;
      p.used <- p.used + 1
    end
  end

(* The selection, ascending. *)
let picked p =
  compact p;
  List.init p.used (fun i -> p.buf.(i))

(** [select ~known ~known_cap ~orphan_cap iter]: the audit's two capped
    selections, of the known keys (source IP satisfying [known]) and of
    the others, each the smallest distinct 5-tuples pinned
    ({!pins_key}) by the matches [iter] yields, ascending — what a
    {!Capped} of that cap holds once offered them all.  Only the
    selected keys are built. *)
let select ~known ~known_cap ~orphan_cap iter =
  let k = pick_create known_cap and o = pick_create orphan_cap in
  iter (fun m -> pick (if known (ip_of m.Of_match.ip_src) then k else o) m);
  let keys_of p = List.map (fun m -> Option.get (Of_match.flow_key m)) (picked p) in
  (keys_of k, keys_of o)

(** Injection seeds: every exact 5-tuple a rule pins plus a key per host
    pair, each entering at its {!entry_points}.  Each kind is capped to
    its smallest keys, the selection {!Capped} keeps, but made over
    the rules' matches in place ({!select}): a rule builds no key. *)
let seeds snap =
  let hosts = host_index snap in
  let iter_pinned f =
    List.iter
      (fun (n : S.node) ->
        List.iter
          (fun (_, c) ->
            Classifier.fold
              (fun (r : Flow_table.rule) () ->
                if pins_key r.Flow_table.match_ then f r.Flow_table.match_)
              c ())
          n.S.tables)
      snap.S.nodes
  in
  let iter f =
    List.iter (fun key -> f (Of_match.exact_flow key)) (host_pair_keys snap);
    iter_pinned f
  in
  let known, orphan =
    select ~known:(Hashtbl.mem hosts) ~known_cap:max_seed_keys ~orphan_cap:max_orphan_keys iter
  in
  let edges = edge_ports snap in
  let seed key = (key, entry_points hosts ~edges key) in
  List.map seed known @ List.map seed orphan

let snapshot snap =
  let env = make_env snap in
  List.concat_map
    (fun (key, points) -> fst (walk_class env ~key ~prev:[] points))
    (seeds snap)
