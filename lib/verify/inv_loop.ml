(** Invariant: no forwarding loops — the symbolic packet walk.

    Header space is partitioned into flow-key equivalence classes (the
    exact 5-tuples any rule pins, plus a synthetic flow per host pair);
    one forged packet per class is walked through the snapshot's
    pipeline (tables, groups, tunnels with encap/decap) from every
    reachable injection point, and must never revisit a (switch,
    in-port, encap-stack) state.  Each pipeline step is the datapath's
    own code: {!Of_match.matches}, {!Flow_table.is_exact_shape},
    {!Group_table.select} and {!Packet.decap_tunnel}.

    The walk is exposed per class ({!walk_class}) so the incremental
    verifier can re-walk only the classes a delta touches, with the
    set of dpids each walk visited as its dependency footprint, and the
    class universe's parts ({!Capped}, {!host_index}, {!entry_points})
    so its selection of classes is the one {!seeds} makes. *)

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

(** Per-table match index: exact-5-tuple rules probed by the packet's
    own key, the rest scanned — split by {!Flow_table.is_exact_shape},
    as {!Flow_table} splits its own buckets, so thousands of reactive
    per-flow rules cost O(1) per lookup. *)
type tbl_index = {
  exact : Flow_table.rule list Flow_key.Hashtbl.t; (* descending priority *)
  scan : Flow_table.rule list;                     (* descending priority *)
}

let index_table rules =
  (* sized for its final load: no rehash on the way up *)
  let exact = Flow_key.Hashtbl.create (max 16 (List.length rules / 2)) in
  let scan = ref [] in
  (* [rules] is descending priority; keep that order in both halves *)
  List.iter
    (fun (r : Flow_table.rule) ->
      if Flow_table.is_exact_shape r.Flow_table.match_ then begin
        match Inv_common.flow_key_of_match r.Flow_table.match_ with
        | Some key -> (
          match Flow_key.Hashtbl.find_opt exact key with
          | Some l -> Flow_key.Hashtbl.replace exact key (l @ [ r ])
          | None -> Flow_key.Hashtbl.add exact key [ r ])
        | None -> scan := r :: !scan
      end
      else scan := r :: !scan)
    rules;
  { exact; scan = List.rev !scan }

(** In-place index maintenance for a rule delta whose every rule is
    exact-shaped: mutate the probe buckets directly, keeping each
    bucket in descending priority (two distinct exact rules sharing a
    bucket necessarily differ in priority, so the order is total).
    Returns [false] — caller must rebuild via {!index_table} — when any
    delta rule belongs in the scan half, whose first-match order only
    the full table list knows. *)
let index_delta idx ~added ~removed =
  let exact_key (r : Flow_table.rule) =
    if Flow_table.is_exact_shape r.Flow_table.match_ then
      Inv_common.flow_key_of_match r.Flow_table.match_
    else None
  in
  if
    List.for_all (fun r -> exact_key r <> None) added
    && List.for_all (fun r -> exact_key r <> None) removed
  then begin
    List.iter
      (fun (r : Flow_table.rule) ->
        match exact_key r with
        | None -> ()
        | Some key -> (
          match Flow_key.Hashtbl.find_opt idx.exact key with
          | None -> ()
          | Some l -> (
            match
              List.filter
                (fun (x : Flow_table.rule) ->
                  not
                    (x.Flow_table.priority = r.Flow_table.priority
                    && x.Flow_table.match_ = r.Flow_table.match_))
                l
            with
            | [] -> Flow_key.Hashtbl.remove idx.exact key
            | l' -> Flow_key.Hashtbl.replace idx.exact key l')))
      removed;
    List.iter
      (fun (r : Flow_table.rule) ->
        match exact_key r with
        | None -> ()
        | Some key ->
          let rec ins = function
            | [] -> [ r ]
            | (x : Flow_table.rule) :: rest ->
              if r.Flow_table.priority > x.Flow_table.priority then r :: x :: rest
              else x :: ins rest
          in
          Flow_key.Hashtbl.replace idx.exact key
            (ins (Option.value (Flow_key.Hashtbl.find_opt idx.exact key) ~default:[])))
      added;
    true
  end
  else false

let index_lookup idx (ctx : Of_match.context) =
  let first l = List.find_opt (fun r -> Of_match.matches r.Flow_table.match_ ctx) l in
  let exact =
    match Flow_key.Hashtbl.find_opt idx.exact (Packet.flow_key ctx.Of_match.packet) with
    | Some l -> first l
    | None -> None
  in
  match (exact, first idx.scan) with
  | Some a, Some b -> if b.Flow_table.priority > a.Flow_table.priority then Some b else Some a
  | (Some _ as r), None | None, (Some _ as r) -> r
  | None, None -> None

type env = {
  snap : S.t;
  indexes : (int * int, tbl_index) Hashtbl.t; (* (dpid, table) -> index *)
  mutable diags : D.t list;
  touched : (int, unit) Hashtbl.t; (* dpids the current walk visited *)
}

(** [make_env ?indexes snap] builds a walk environment.  Pass a shared
    [indexes] table to amortize per-table indexing across many walks —
    the incremental verifier keeps one across updates and invalidates
    entries when the underlying table changes. *)
let make_env ?indexes snap =
  { snap;
    indexes = (match indexes with Some h -> h | None -> Hashtbl.create 64);
    diags = [];
    touched = Hashtbl.create 16 }

let index_of env (n : S.node) table_id =
  match Hashtbl.find_opt env.indexes (n.S.dpid, table_id) with
  | Some idx -> idx
  | None ->
    let idx = index_table (Option.value (List.assoc_opt table_id n.S.rules) ~default:[]) in
    Hashtbl.replace env.indexes (n.S.dpid, table_id) idx;
    idx

let witness_of key path =
  Printf.sprintf "%s via %s" (Flow_key.to_string key)
    (String.concat " -> "
       (List.rev_map (fun (dpid, in_port, _) -> Printf.sprintf "%d:%d" dpid in_port) path))

(** Walk one symbolic packet from an arrival, following every output it
    generates; report a Loop diagnostic on the first state revisit or
    hop-budget exhaustion.  One report per walk is enough — a loop
    revisits its states forever.  Every dpid the packet arrives at
    (failed, unknown or not) is recorded in [env.touched], so the
    incremental verifier knows which node changes can alter this
    walk. *)
let walk env ~key start_dpid ~in_port pkt =
  let looped = ref false in
  let report ~dpid path msg =
    if not !looped then begin
      looped := true;
      env.diags <-
        D.make ~dpid ~witness:(witness_of key path) ~severity:D.Error ~invariant:D.Loop msg
        :: env.diags
    end
  in
  let rec arrive path dpid ~in_port pkt =
    Hashtbl.replace env.touched dpid ();
    if not !looped then
      match S.node env.snap dpid with
      | None -> ()
      | Some n ->
        if not n.S.failed then begin
          (* tunnel-port arrival: strip the matching outer header and
             surface the tunnel id, as the datapath does *)
          let tunnel_id, pkt =
            match S.find_port n in_port with
            | Some { S.tunnel = Some tid; _ } -> (Some tid, Packet.decap_tunnel ~tunnel_id:tid pkt)
            | _ -> (None, pkt)
          in
          (* equal encap stacks are exactly the ones that print alike *)
          let state = (dpid, in_port, pkt.Packet.encaps) in
          if List.mem state path then
            report ~dpid path
              (Printf.sprintf "forwarding loop: (dpid %d, in-port %d) revisited" dpid in_port)
          else if List.length path >= max_hops then
            report ~dpid path
              (Printf.sprintf "hop budget (%d) exhausted: probable forwarding loop" max_hops)
          else begin
            let path = state :: path in
            let ctx = Of_match.context ?tunnel_id ~in_port pkt in
            run_table path n ~ctx ~table_id:0 pkt
          end
        end
  and run_table path (n : S.node) ~ctx ~table_id pkt =
    let ctx = { ctx with Of_match.packet = pkt } in
    match index_lookup (index_of env n table_id) ctx with
    | None -> () (* bare miss: drop; the coverage invariant owns this *)
    | Some r ->
      let pkt = apply path n ~ctx pkt (Of_action.actions_of_instructions r.Flow_table.instructions) in
      (match Of_action.goto_of_instructions r.Flow_table.instructions with
      | Some next when next > table_id && next < n.S.num_tables ->
        run_table path n ~ctx ~table_id:next pkt
      | Some _ | None -> ())
  and transmit path (_n : S.node) (p : S.port) pkt =
    let pkt =
      match p.S.tunnel with
      | Some tid -> Packet.push_encap (Headers.Encap.mpls tid) pkt
      | None -> pkt
    in
    match p.S.endpoint with
    | S.To_switch { peer; peer_in_port } -> arrive path peer ~in_port:peer_in_port pkt
    | S.To_host _ | S.Opaque | S.Disconnected -> ()
  and emit path n pid pkt =
    match S.find_port n pid with Some p -> transmit path n p pkt | None -> ()
  and apply path (n : S.node) ~(ctx : Of_match.context) pkt actions =
    match actions with
    | [] -> pkt
    | act :: rest ->
      if !looped then pkt
      else begin
        let continue pkt = apply path n ~ctx pkt rest in
        match act with
        | Of_action.Output (Of_types.Port_no.Physical p) ->
          if p <> ctx.Of_match.in_port then emit path n p pkt;
          continue pkt
        | Of_action.Output Of_types.Port_no.In_port ->
          emit path n ctx.Of_match.in_port pkt;
          continue pkt
        | Of_action.Output Of_types.Port_no.All ->
          List.iter
            (fun (p : S.port) ->
              if p.S.port_id <> ctx.Of_match.in_port && p.S.tunnel = None then
                transmit path n p pkt)
            n.S.ports;
          continue pkt
        | Of_action.Output
            (Of_types.Port_no.Controller | Of_types.Port_no.Local | Of_types.Port_no.Any) ->
          continue pkt
        | Of_action.Group gid -> (
          match List.find_opt (fun (g : S.group) -> g.S.group_id = gid) n.S.groups with
          | None -> continue pkt
          | Some g ->
            let flow_hash = Flow_key.hash (Packet.flow_key pkt) in
            List.iter
              (fun (b : Of_msg.Group_mod.bucket) ->
                ignore (apply path n ~ctx pkt b.Of_msg.Group_mod.actions))
              (Group_table.select g.S.group_type g.S.buckets ~flow_hash);
            continue pkt)
        | Of_action.Push_mpls label -> continue (Packet.push_encap (Headers.Encap.mpls label) pkt)
        | Of_action.Pop_mpls -> (
          match Packet.pop_encap pkt with
          | Some (Headers.Encap.Mpls _, pkt') -> continue pkt'
          | Some _ | None -> continue pkt)
        | Of_action.Push_gre k -> continue (Packet.push_encap (Headers.Encap.gre k) pkt)
        | Of_action.Pop_gre -> (
          match Packet.pop_encap pkt with
          | Some (Headers.Encap.Gre _, pkt') -> continue pkt'
          | Some _ | None -> continue pkt)
        | Of_action.Set_eth_dst _ | Of_action.Set_eth_src _ | Of_action.Dec_ttl
        | Of_action.Drop ->
          continue pkt
      end
  in
  arrive [] start_dpid ~in_port pkt

(** Walk one equivalence class from all its injection points; returns
    its diagnostics and the sorted set of dpids the walks visited. *)
let walk_class env ~key entry_points =
  env.diags <- [];
  Hashtbl.reset env.touched;
  List.iter
    (fun (dpid, in_port) -> walk env ~key dpid ~in_port (packet_of_key key))
    entry_points;
  let touched = Hashtbl.fold (fun d () acc -> d :: acc) env.touched [] in
  (env.diags, List.sort compare touched)

(* ------------------------------------------------------------------ *)
(* The class universe: which flow keys to walk, injected where. *)

(** Caps keeping the walk budget bounded on big snapshots; generous
    multiples of what any current topology produces. *)
let max_seed_keys = 4096

let max_orphan_keys = 128

(** A capped key selection: the [cap] smallest keys offered, in
    {!Flow_key.Set} order.  The rescan's {!seeds} offers every key and
    drops what falls out; the incremental verifier offers keys as rules
    pin them, parks what falls out and re-offers it when an active key
    is withdrawn. *)
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

(** Injection seeds: every exact 5-tuple a rule pins plus a key per host
    pair, each entering at its {!entry_points}.  Each kind is capped to
    its smallest keys ({!Capped}).  Indexes every table into [env] on
    the way. *)
let seeds env =
  let snap = env.snap in
  let hosts = host_index snap in
  let known = Capped.create max_seed_keys and orphan = Capped.create max_orphan_keys in
  let offer key = ignore (Capped.offer (if is_known hosts key then known else orphan) key) in
  List.iter offer (host_pair_keys snap);
  List.iter
    (fun (n : S.node) ->
      List.iter
        (fun (table_id, rules) ->
          let idx = index_table rules in
          Hashtbl.replace env.indexes (n.S.dpid, table_id) idx;
          Flow_key.Hashtbl.iter (fun key _ -> offer key) idx.exact;
          List.iter
            (fun (r : Flow_table.rule) ->
              Option.iter offer (Inv_common.flow_key_of_match r.Flow_table.match_))
            idx.scan)
        n.S.rules)
    snap.S.nodes;
  let edges = edge_ports snap in
  let seed key = (key, entry_points hosts ~edges key) in
  List.map seed (Flow_key.Set.elements known.Capped.keys)
  @ List.map seed (Flow_key.Set.elements orphan.Capped.keys)

let snapshot snap =
  let env = make_env snap in
  List.concat_map
    (fun (key, points) -> fst (walk_class env ~key points))
    (seeds env)
