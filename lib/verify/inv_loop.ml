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

type env = {
  snap : S.t;
  mutable diags : D.t list;
  touched : (int, unit) Hashtbl.t; (* dpids the current walk visited *)
}

(** [make_env snap] builds a walk environment over [snap]'s tables,
    ports, groups and liveness. *)
let make_env snap = { snap; diags = []; touched = Hashtbl.create 16 }

let witness_of key path =
  Printf.sprintf "%s via %s" (Flow_key.to_string key)
    (String.concat " -> "
       (List.rev_map (fun (dpid, in_port, _) -> Printf.sprintf "%d:%d" dpid in_port) path))

(** One walk: the class it follows and whether it has looped yet. *)
type walk = { env : env; key : Flow_key.t; mutable looped : bool }

(** The (dpid, in-port, encap-stack) states a walk has passed, newest
    first. *)
type path = (int * int * Headers.Encap.t list) list

(** One arrival of the walk: the switch it reached and how. *)
type step = { walk : walk; path : path; node : S.node }

(** Report a Loop diagnostic and end the walk: one report per walk is
    enough, a loop revisits its states forever. *)
let report w ~dpid path msg =
  w.looped <- true;
  w.env.diags <-
    D.make ~dpid ~witness:(witness_of w.key path) ~severity:D.Error ~invariant:D.Loop msg
    :: w.env.diags

(** The walk as a {!Pipeline} target.  Outputs follow the port to its
    peer switch; Packet-Ins, drops and misses end the branch (the
    coverage and blackhole invariants own them); once the walk has
    looped, outputs do nothing. *)
module rec Step : sig
  include Pipeline.TARGET with type t = step

  val arrive : walk -> path -> int -> in_port:int -> Packet.t -> unit
end = struct
  type t = step

  (* expiry-blind: the model holds what the tables hold, expired or not *)
  let lookup s ~table_id ctx =
    if table_id >= s.node.S.num_tables then None
    else
      match S.table s.node table_id with
      | Some c -> Classifier.lookup c ~now:neg_infinity ctx
      | None -> None

  (* Every dpid the packet arrives at (failed, unknown or not) is
     recorded in [env.touched], so the incremental verifier knows which
     node changes can alter this walk. *)
  let rec arrive w path dpid ~in_port pkt =
    Hashtbl.replace w.env.touched dpid ();
    if not w.looped then
      match S.node w.env.snap dpid with
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
            report w ~dpid path
              (Printf.sprintf "forwarding loop: (dpid %d, in-port %d) revisited" dpid in_port)
          else if List.length path >= max_hops then
            report w ~dpid path
              (Printf.sprintf "hop budget (%d) exhausted: probable forwarding loop" max_hops)
          else
            Walk.run_table { walk = w; path = state :: path; node = n } ~table_id:0
              ~ctx:(Of_match.context ?tunnel_id ~in_port pkt) pkt
        end

  and transmit s (p : S.port) pkt =
    let pkt =
      match p.S.tunnel with Some tid -> Packet.encap_tunnel ~tunnel_id:tid pkt | None -> pkt
    in
    match p.S.endpoint with
    | S.To_switch { peer; peer_in_port } -> arrive s.walk s.path peer ~in_port:peer_in_port pkt
    | S.To_host _ | S.Opaque | S.Disconnected -> ()

  let emit s pid pkt =
    if not s.walk.looped then
      match S.find_port s.node pid with Some p -> transmit s p pkt | None -> ()

  let flood s ~in_port pkt =
    if not s.walk.looped then
      List.iter
        (fun (p : S.port) ->
          if p.S.port_id <> in_port && p.S.tunnel = None then transmit s p pkt)
        s.node.S.ports

  let to_controller _ _ _ _ = ()
  (* an empty group, which only a forged snapshot holds (group sanity
     reports it), executes nothing, as a missing one does *)
  let group s gid =
    List.find_opt
      (fun (g : Group_table.group) -> g.group_id = gid && g.buckets <> [])
      s.node.S.groups
  let drop _ _ = ()
end

and Walk : sig
  val run_table : step -> table_id:int -> ctx:Of_match.context -> Packet.t -> unit
end =
  Pipeline.Make (Step)

(** Walk one equivalence class from all its injection points; returns
    its diagnostics and the sorted set of dpids the walks visited. *)
let walk_class env ~key entry_points =
  env.diags <- [];
  Hashtbl.reset env.touched;
  List.iter
    (fun (dpid, in_port) ->
      Step.arrive { env; key; looped = false } [] dpid ~in_port (packet_of_key key))
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
    its smallest keys ({!Capped}). *)
let seeds snap =
  let hosts = host_index snap in
  let known = Capped.create max_seed_keys and orphan = Capped.create max_orphan_keys in
  let offer key = ignore (Capped.offer (if is_known hosts key then known else orphan) key) in
  List.iter offer (host_pair_keys snap);
  List.iter
    (fun (n : S.node) ->
      List.iter
        (fun (_, c) ->
          Classifier.fold
            (fun (r : Flow_table.rule) () ->
              Option.iter offer (Of_match.flow_key r.Flow_table.match_))
            c ())
        n.S.tables)
    snap.S.nodes;
  let edges = edge_ports snap in
  let seed key = (key, entry_points hosts ~edges key) in
  List.map seed (Flow_key.Set.elements known.Capped.keys)
  @ List.map seed (Flow_key.Set.elements orphan.Capped.keys)

let snapshot snap =
  let env = make_env snap in
  List.concat_map
    (fun (key, points) -> fst (walk_class env ~key points))
    (seeds snap)
