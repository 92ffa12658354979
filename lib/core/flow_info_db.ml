(** The Flow Info Database (§5.2).

    "The controller maintains the flow's first-hop physical switch id
    and the ingress port id … Such information will be used for large
    flow migration."  We also track which path each flow currently uses
    and the packet count at the last stats poll (for rate-based elephant
    detection). *)

open Scotch_packet

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
  flows : entry Flow_key.Hashtbl.t;
  mutable overlay_count : int; (* live accounting of flows per kind *)
  mutable physical_count : int;
}

let create () = { flows = Flow_key.Hashtbl.create 1024; overlay_count = 0; physical_count = 0 }

let find t key = Flow_key.Hashtbl.find_opt t.flows key

let count_kind t kind delta =
  match kind with
  | Overlay _ -> t.overlay_count <- t.overlay_count + delta
  | Physical -> t.physical_count <- t.physical_count + delta
  | Pending | Dropped -> ()

(** [admit t ~key ~first_hop ~ingress_port ~now] records a new flow in
    [Pending] state; returns the entry (existing entry wins — Packet-In
    duplicates are common while a flow awaits setup). *)
let admit t ?(tenant = Tenant.default_id) ~key ~first_hop ~ingress_port ~now () =
  match find t key with
  | Some e -> e
  | None ->
    let e =
      { key; first_hop; ingress_port; tenant; created = now; kind = Pending;
        migrating = false; last_packet_count = 0; last_active = now }
    in
    Flow_key.Hashtbl.replace t.flows key e;
    e

(** Transition a flow to a new path kind, keeping counts consistent. *)
let set_kind t e kind =
  count_kind t e.kind (-1);
  count_kind t kind 1;
  e.kind <- kind

let remove t key =
  match find t key with
  | None -> ()
  | Some e ->
    count_kind t e.kind (-1);
    Flow_key.Hashtbl.remove t.flows key

(** [observe_count t e ~packets ~now ~interval] folds a fresh cumulative
    packet count into the entry and returns the flow's packet rate over
    [interval] — the shared rate arithmetic of both the exact-polling
    and sampled-telemetry detection paths.  Negative deltas (a vswitch
    rule expired and was re-installed, resetting its counter) clamp to
    zero rather than poisoning the rate. *)
let observe_count _t e ~packets ~now ~interval =
  let delta = Stdlib.max 0 (packets - e.last_packet_count) in
  e.last_packet_count <- packets;
  if delta > 0 then e.last_active <- now;
  if interval > 0.0 then float_of_int delta /. interval else 0.0

let size t = Flow_key.Hashtbl.length t.flows
let overlay_count t = t.overlay_count
let physical_count t = t.physical_count

let iter t f = Flow_key.Hashtbl.iter (fun _ e -> f e) t.flows

(** Flows currently routed over the overlay whose first hop is [dpid],
    recently seen alive ([horizon] seconds) and longer than one packet
    — the set that gets pinned during withdrawal (§5.5).
    One-packet probes (the bulk of a spoofed DDoS) need no pin: they
    will never send again, and a stray late packet simply becomes a new
    Packet-In. *)
let overlay_flows_of_switch t ?(horizon = infinity) ~now dpid =
  Flow_key.Hashtbl.fold
    (fun _ e acc ->
      match e.kind with
      | Overlay _
        when e.first_hop = dpid
             && now -. e.last_active <= horizon
             && e.last_packet_count >= 2 -> e :: acc
      | Overlay _ | Pending | Physical | Dropped -> acc)
    t.flows []
