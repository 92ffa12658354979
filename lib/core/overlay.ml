(** Scotch overlay construction and bookkeeping (§4.1, §5.6).

    The overlay has three tunnel classes:
    + physical switch ↔ vswitch "uplink" tunnels (load-distribution);
    + the fully connected vswitch mesh;
    + vswitch → host delivery tunnels (one per host from the vswitch
      covering its location/rack).

    This module builds the tunnels, keeps the mapping tables the
    controller needs — tunnel id → origin physical switch (§5.2), host →
    covering vswitch — and tracks vswitch liveness/backup status. *)

open Scotch_switch
open Scotch_topo

type vswitch_info = {
  vsw : Switch.t;
  mesh_out : (int, int) Hashtbl.t;    (* peer vswitch dpid -> outgoing tunnel id *)
  host_tunnels : (int, int) Hashtbl.t; (* host ip (int) -> delivery tunnel id *)
  mutable is_backup : bool;
  mutable alive : bool;
  mutable quarantined : bool;
      (* circuit breaker open: excluded from new-flow load balancing
         (select groups, backup promotion) but still alive — existing
         overlay flows keep draining through it *)
}

type t = {
  topo : Topology.t;
  vswitches : (int, vswitch_info) Hashtbl.t; (* by dpid *)
  (* physical dpid -> (vswitch dpid, uplink tunnel id) list *)
  uplinks : (int, (int * int) list ref) Hashtbl.t;
  (* uplink tunnel id -> origin physical switch dpid *)
  tunnel_origin : (int, int) Hashtbl.t;
  (* host ip (int) -> covering vswitch dpid *)
  host_cover : (int, int) Hashtbl.t;
  mutable bench_backups : bool;
      (* when a pool manager (autoscaler) owns the pool, backups idle
         on the bench — excluded from select-group buckets until
         promoted.  Off by default: without a manager, backups share
         load as plain pool members (§5.6 failover spares). *)
}

let create topo =
  { topo; vswitches = Hashtbl.create 16; uplinks = Hashtbl.create 16;
    tunnel_origin = Hashtbl.create 64; host_cover = Hashtbl.create 256;
    bench_backups = false }

let vswitch t dpid = Hashtbl.find_opt t.vswitches dpid

let iter_vswitches t f = Hashtbl.iter (fun _ v -> f v) t.vswitches

(** Active (alive, non-backup, non-quarantined) vswitch infos. *)
let active_vswitches t =
  Hashtbl.fold
    (fun _ v acc -> if v.alive && not v.is_backup && not v.quarantined then v :: acc else acc)
    t.vswitches []
  |> List.sort (fun a b -> compare (Switch.dpid a.vsw) (Switch.dpid b.vsw))

(** [add_vswitch t vsw ~backup] registers a vswitch and meshes it with
    every vswitch already present ("we choose to form a fully connected
    vswitch mesh in order to facilitate the overlay routing").  New
    vswitches can join a running overlay (§5.6). *)
let add_vswitch t vsw ~backup =
  let dpid = Switch.dpid vsw in
  if Hashtbl.mem t.vswitches dpid then invalid_arg "Overlay.add_vswitch: duplicate";
  let info =
    { vsw; mesh_out = Hashtbl.create 16; host_tunnels = Hashtbl.create 64; is_backup = backup;
      alive = true; quarantined = false }
  in
  Hashtbl.iter
    (fun peer_dpid peer ->
      let tid_ab, tid_ba = Topology.add_tunnel_switches t.topo vsw peer.vsw in
      Hashtbl.replace info.mesh_out peer_dpid tid_ab;
      Hashtbl.replace peer.mesh_out dpid tid_ba)
    t.vswitches;
  Hashtbl.replace t.vswitches dpid info

(** [connect_switch t phys ~to_vswitches] builds uplink tunnels from a
    physical switch to the named vswitches; records tunnel origins so
    Packet-Ins arriving from a vswitch can be attributed (§5.2). *)
let connect_switch t phys ~to_vswitches =
  let dpid = Switch.dpid phys in
  let ups =
    match Hashtbl.find_opt t.uplinks dpid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.uplinks dpid r;
      r
  in
  List.iter
    (fun vdpid ->
      match vswitch t vdpid with
      | None -> invalid_arg "Overlay.connect_switch: unknown vswitch"
      | Some info ->
        let tid_up, _tid_down = Topology.add_tunnel_switches t.topo phys info.vsw in
        ups := (vdpid, tid_up) :: !ups;
        Hashtbl.replace t.tunnel_origin tid_up dpid)
    to_vswitches

(** [cover_host t ~vswitch_dpid host] creates the delivery tunnel from
    the covering vswitch to [host] and records the coverage. *)
let cover_host t ~vswitch_dpid host =
  match vswitch t vswitch_dpid with
  | None -> invalid_arg "Overlay.cover_host: unknown vswitch"
  | Some info ->
    let tid = Topology.add_tunnel_to_host t.topo info.vsw host in
    Hashtbl.replace info.host_tunnels (Scotch_packet.Ipv4_addr.to_int (Host.ip host)) tid;
    Hashtbl.replace t.host_cover (Scotch_packet.Ipv4_addr.to_int (Host.ip host)) vswitch_dpid

(** Origin physical switch of an uplink tunnel ("maintaining a table to
    map the tunnel id to the physical switch id"). *)
let origin_of_tunnel t tid = Hashtbl.find_opt t.tunnel_origin tid

(* Whether [vdpid] is a registered vswitch that is alive. *)
let is_alive t vdpid =
  match Hashtbl.find t.vswitches vdpid with v -> v.alive | exception Not_found -> false

(* Any alive vswitch with a delivery tunnel to host [ip]; raises
   [Not_found] when there is none. *)
let alive_cover t ip =
  let found =
    Hashtbl.fold
      (fun dpid v acc ->
        match acc with
        | Some _ -> acc
        | None -> if v.alive && Hashtbl.mem v.host_tunnels ip then Some dpid else None)
      t.vswitches None
  in
  match found with Some vd -> vd | None -> raise Not_found

(** Covering vswitch of a destination IP, preferring an alive one: if
    the recorded cover died, fall back to any alive vswitch that has a
    delivery tunnel to this host.  Raises [Not_found] when none does;
    the recorded cover's lookup allocates nothing. *)
let cover_of_ip t ip =
  let ip = Scotch_packet.Ipv4_addr.to_int ip in
  match Hashtbl.find t.host_cover ip with
  | vd when is_alive t vd -> vd
  | _ -> alive_cover t ip
  | exception Not_found -> alive_cover t ip

(** Delivery tunnel id from vswitch [vdpid] to host [ip]; raises
    [Not_found] when there is none. *)
let delivery_tunnel t ~vswitch_dpid ip =
  Hashtbl.find (Hashtbl.find t.vswitches vswitch_dpid).host_tunnels
    (Scotch_packet.Ipv4_addr.to_int ip)

(** Mesh tunnel id from vswitch [src] to vswitch [dst]; raises
    [Not_found] when there is none. *)
let mesh_tunnel t ~src ~dst = Hashtbl.find (Hashtbl.find t.vswitches src).mesh_out dst

(** Uplink tunnels of a physical switch: [(vswitch dpid, tunnel id)]. *)
let uplinks_of t dpid =
  match Hashtbl.find_opt t.uplinks dpid with None -> [] | Some r -> !r

(** Uplinks of [dpid] restricted to alive, in-service vswitches — the
    candidates for select-group buckets.  Quarantined members are
    always excluded; backups are excluded only under
    {!set_bench_backups} (a pool manager holding them in reserve). *)
let alive_uplinks_of t dpid =
  List.filter
    (fun (vdpid, _) ->
      match vswitch t vdpid with
      | Some v ->
        v.alive && not v.quarantined && not (t.bench_backups && v.is_backup)
      | None -> false)
    (uplinks_of t dpid)

(** [set_bench_backups t on] switches backup semantics: [on] benches
    standbys (no select-group load until promoted — autoscaler mode),
    [off] lets them share load like any other member. *)
let set_bench_backups t on = t.bench_backups <- on

(** Mark a vswitch dead (heartbeat timeout).  Returns the first backup
    promoted to active duty, if one was available. *)
let mark_dead t dpid =
  match vswitch t dpid with
  | None -> None
  | Some v ->
    v.alive <- false;
    let promoted =
      Hashtbl.fold
        (fun _ cand acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if cand.alive && cand.is_backup && not cand.quarantined then Some cand else None)
        t.vswitches None
    in
    (match promoted with
    | Some b ->
      b.is_backup <- false;
      Some (Switch.dpid b.vsw)
    | None -> None)

(** A recovered vswitch rejoins as a backup (§5.6: "the failed vswitch
    can join back Scotch as a new or backup vswitch"). *)
let mark_recovered t dpid =
  match vswitch t dpid with
  | None -> ()
  | Some v ->
    v.alive <- true;
    v.is_backup <- true

(** [set_quarantined t dpid q] opens/closes the circuit breaker on a
    vswitch: quarantined members stop receiving new flows (excluded
    from {!active_vswitches}, {!alive_uplinks_of} and backup
    promotion) but keep delivering the flows they already carry. *)
let set_quarantined t dpid q =
  match vswitch t dpid with None -> () | Some v -> v.quarantined <- q

(** [set_backup t dpid b] flips a member between standby and active
    duty (autoscaler promote/demote). *)
let set_backup t dpid b =
  match vswitch t dpid with None -> () | Some v -> v.is_backup <- b

let quarantined_count t =
  Hashtbl.fold (fun _ v acc -> if v.quarantined then acc + 1 else acc) t.vswitches 0

(** {1 Snapshot accessors (verification)} *)

(** Every physical switch's uplinks, as [(phys dpid, (vswitch dpid,
    tunnel id) list)], sorted by dpid. *)
let all_uplinks t =
  Hashtbl.fold (fun dpid r acc -> (dpid, List.sort compare !r) :: acc) t.uplinks []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** The full tunnel-id → origin-switch table, sorted by tunnel id. *)
let tunnel_origins t =
  Hashtbl.fold (fun tid dpid acc -> (tid, dpid) :: acc) t.tunnel_origin []
  |> List.sort compare

(** The recorded host-coverage table as [(host ip int, vswitch dpid)],
    sorted — the {e recorded} cover, before the alive-fallback of
    {!cover_of_ip}. *)
let covers t =
  Hashtbl.fold (fun ip vd acc -> (ip, vd) :: acc) t.host_cover [] |> List.sort compare

let size t = Hashtbl.length t.vswitches

let alive_count t =
  Hashtbl.fold (fun _ v acc -> if v.alive then acc + 1 else acc) t.vswitches 0
