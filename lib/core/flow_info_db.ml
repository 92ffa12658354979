(** The Flow Info Database (§5.2).

    "The controller maintains the flow's first-hop physical switch id
    and the ingress port id … Such information will be used for large
    flow migration."  We also track which path each flow currently uses
    and the packet count at the last stats poll (for rate-based elephant
    detection).

    Layout: the entries sit in a {!Scotch_util.Open_index}, a dense
    array in admission order where a removed flow's entry becomes the
    [gone] sentinel, indexed by an open-addressed [int array] on a hash
    of the key's five ints.  A lookup hashes the five values wherever
    they are held — a {!Flow_key.t}, or the fields of an exact
    {!Of_match.t} in a stats record ({!find_match_exn}) — and compares them
    field by field, so it builds no key and a miss allocates nothing.
    {!iter} and {!overlay_flows_of_switch} walk admission order, which
    does not depend on the hash. *)

open Scotch_packet
open Scotch_openflow
module Ix = Scotch_util.Open_index

type path_kind =
  | Pending             (* queued at the controller, no path yet *)
  | Physical            (* per-flow (red) rules on the physical network *)
  | Overlay of { entry_vswitch : int } (* routed via the vswitch mesh *)
  | Dropped             (* shed past the dropping threshold *)

type entry = {
  key : Flow_key.t;
  first_hop : int;       (* physical switch the flow entered the network at *)
  ingress_port : int;    (* ingress port at that switch *)
  tenant : int;          (* owning tenant (Tenant.default_id when untenanted) *)
  created : float;
  mutable kind : path_kind;
  mutable migrating : bool;
  mutable last_packet_count : int; (* at previous stats poll *)
  mutable last_active : float;     (* last time the flow was known alive *)
}

type t = {
  flows : (unit, entry) Ix.t; (* admission order *)
  mutable overlay_count : int; (* live accounting of flows per kind *)
  mutable physical_count : int;
}

(* A removed flow's entry, compared with [==].  Its kind, [Dropped],
   keeps it out of {!overlay_flows_of_switch}'s scan. *)
let gone =
  { key = Flow_key.make ~ip_src:0 ~ip_dst:0 ~proto:0 (); first_hop = -1; ingress_port = -1;
    tenant = Tenant.default_id; created = 0.0; kind = Dropped; migrating = false;
    last_packet_count = 0; last_active = 0.0 }

let hash ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst =
  Ix.finish (Ix.mix (Ix.mix (Ix.mix (Ix.mix (Ix.mix Ix.seed ip_src) ip_dst) proto) l4_src) l4_dst)

let hash_entry () e =
  let k = e.key in
  hash ~ip_src:k.Flow_key.ip_src ~ip_dst:k.Flow_key.ip_dst ~proto:k.Flow_key.proto
    ~l4_src:k.Flow_key.l4_src ~l4_dst:k.Flow_key.l4_dst

let create () =
  { flows = Ix.create ~tag:() ~vacant:gone ~hash:hash_entry; overlay_count = 0; physical_count = 0 }

(* The position of the flow with this key, or -1: the candidates of
   hash [h] from slot [s] on, compared field by field.  Direct
   recursion, so a probe allocates no closure. *)
let rec find_from flows h s ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst =
  if s < 0 then -1
  else
    let pos = Ix.position flows s in
    let e = flows.Ix.entries.(pos) in
    let k = e.key in
    if
      e != gone
      && Int.equal k.Flow_key.ip_src ip_src
      && Int.equal k.Flow_key.ip_dst ip_dst
      && Int.equal k.Flow_key.proto proto
      && Int.equal k.Flow_key.l4_src l4_src
      && Int.equal k.Flow_key.l4_dst l4_dst
    then pos
    else find_from flows h (Ix.probe_next flows h s) ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst

let find_pos t ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst =
  let h = hash ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst in
  find_from t.flows h (Ix.probe t.flows h) ~ip_src ~ip_dst ~proto ~l4_src ~l4_dst

let pos_of_key t (k : Flow_key.t) =
  find_pos t ~ip_src:k.Flow_key.ip_src ~ip_dst:k.Flow_key.ip_dst ~proto:k.Flow_key.proto
    ~l4_src:k.Flow_key.l4_src ~l4_dst:k.Flow_key.l4_dst

let entry_at t pos = match pos with -1 -> None | pos -> Some t.flows.Ix.entries.(pos)

let find t key = entry_at t (pos_of_key t key)

(* The fields {!Of_match.flow_key} reads, read in place; a hit
   allocates nothing. *)
let find_match_exn t (m : Of_match.t) =
  match (m.Of_match.ip_src, m.Of_match.ip_dst, m.Of_match.ip_proto) with
  | Some s, Some d, Some proto
    when s.Of_match.mask = Ipv4_addr.mask32 && d.Of_match.mask = Ipv4_addr.mask32 -> (
    let port = function Some p -> p | None -> 0 in
    match
      find_pos t ~ip_src:(Ipv4_addr.of_int s.Of_match.value)
        ~ip_dst:(Ipv4_addr.of_int d.Of_match.value) ~proto ~l4_src:(port m.Of_match.l4_src)
        ~l4_dst:(port m.Of_match.l4_dst)
    with
    | -1 -> raise Not_found
    | pos -> t.flows.Ix.entries.(pos))
  | _ -> raise Not_found

let count_kind t kind delta =
  match kind with
  | Overlay _ -> t.overlay_count <- t.overlay_count + delta
  | Physical -> t.physical_count <- t.physical_count + delta
  | Pending | Dropped -> ()

(** [admit t ~tenant ~key ~first_hop ~ingress_port ~now] records a new
    flow in [Pending] state; returns the entry (existing entry wins —
    Packet-In duplicates are common while a flow awaits setup). *)
let admit t ~tenant ~key ~first_hop ~ingress_port ~now =
  match find t key with
  | Some e -> e
  | None ->
    let e =
      { key; first_hop; ingress_port; tenant; created = now; kind = Pending;
        migrating = false; last_packet_count = 0; last_active = now }
    in
    Ix.append t.flows e;
    e

(** Transition a flow to a new path kind, keeping counts consistent. *)
let set_kind t e kind =
  count_kind t e.kind (-1);
  count_kind t kind 1;
  e.kind <- kind

let remove t key =
  match pos_of_key t key with
  | -1 -> ()
  | pos ->
    count_kind t t.flows.Ix.entries.(pos).kind (-1);
    Ix.vacate t.flows pos;
    Ix.tidy_if_sparse t.flows

(** [observe_count t e ~packets ~now] folds a fresh cumulative packet
    count into the entry and returns the packets since the previous
    one — the shared bookkeeping of both the exact-polling and
    sampled-telemetry detection paths.  Negative deltas (a vswitch rule
    expired and was re-installed, resetting its counter) clamp to zero
    rather than poisoning the rate. *)
let observe_count _t e ~packets ~now =
  let delta = Stdlib.max 0 (packets - e.last_packet_count) in
  e.last_packet_count <- packets;
  if delta > 0 then e.last_active <- now;
  delta

let size t = t.flows.Ix.live
let overlay_count t = t.overlay_count
let physical_count t = t.physical_count

(** [iter t f] applies [f] to every entry in admission order; [f] must
    not admit or remove. *)
let iter t f =
  let flows = t.flows in
  for pos = 0 to flows.Ix.used - 1 do
    let e = flows.Ix.entries.(pos) in
    if e != gone then f e
  done

(** Flows currently routed over the overlay whose first hop is [dpid],
    recently seen alive ([horizon] seconds) and longer than one packet
    — the set that gets pinned during withdrawal (§5.5).
    One-packet probes (the bulk of a spoofed DDoS) need no pin: they
    will never send again, and a stray late packet simply becomes a new
    Packet-In.  Listed in admission order. *)
let overlay_flows_of_switch t ?(horizon = infinity) ~now dpid =
  let flows = t.flows in
  let acc = ref [] in
  for pos = flows.Ix.used - 1 downto 0 do
    let e = flows.Ix.entries.(pos) in
    match e.kind with
    | Overlay _
      when e.first_hop = dpid
           && now -. e.last_active <= horizon
           && e.last_packet_count >= 2 -> acc := e :: !acc
    | Overlay _ | Pending | Physical | Dropped -> ()
  done;
  !acc
