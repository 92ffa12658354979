(** The Flow Info Database (§5.2): per-flow first-hop physical switch,
    ingress port, current path kind and last polled packet count — the
    state large-flow migration (§5.3) and withdrawal pinning (§5.5)
    read.

    Entries are kept in admission order (a re-admitted flow counts as
    admitted anew) and indexed by a hash of the key's five ints, the
    {!Scotch_util.Open_index} layout the classifier's subtables use.
    A lookup reads the five values where they are held, so
    {!find_match_exn} answers a stats record's exact match without
    building a key, allocating nothing.  {!iter}
    and {!overlay_flows_of_switch} follow admission order, never the
    hash. *)

open Scotch_packet
open Scotch_openflow

type path_kind =
  | Pending  (** queued at the controller, no path yet *)
  | Physical (** per-flow (red) rules on the physical network *)
  | Overlay of { entry_vswitch : int }
  | Dropped  (** shed past the dropping threshold *)

type entry = {
  key : Flow_key.t;
  first_hop : int;
  ingress_port : int;
  tenant : int; (** owning tenant ({!Tenant.default_id} when untenanted) *)
  created : float;
  mutable kind : path_kind;
  mutable migrating : bool;
  mutable last_packet_count : int; (** at the previous stats poll *)
  mutable last_active : float;     (** last time the flow was known alive *)
}

type t

val create : unit -> t
val find : t -> Flow_key.t -> entry option

(** [find_match_exn t m] is the entry of the flow an exact match pins —
    [Option.bind (Of_match.flow_key m) (find t)], read from [m]'s
    fields in place, raising [Not_found] for [None]: unless [m] pins
    the protocol and both IPs at /32, or no flow has that key.  Neither
    a hit nor a miss allocates. *)
val find_match_exn : t -> Of_match.t -> entry

(** Record a new flow of [tenant] ({!Tenant.default_id} when
    untenanted) in [Pending] state; an existing entry wins (Packet-In
    duplicates are common while a flow awaits setup). *)
val admit :
  t -> tenant:int -> key:Flow_key.t -> first_hop:int -> ingress_port:int -> now:float -> entry

(** Transition a flow's path kind, keeping the per-kind counts
    consistent. *)
val set_kind : t -> entry -> path_kind -> unit

(** Fold a fresh cumulative packet count into the entry and return the
    packets since the previous count — the shared bookkeeping of the
    exact-polling and sampled-telemetry detection paths.  Negative
    deltas (counter reset after rule re-install) clamp to zero. *)
val observe_count : t -> entry -> packets:int -> now:float -> int

val remove : t -> Flow_key.t -> unit
val size : t -> int
val overlay_count : t -> int
val physical_count : t -> int

(** Every entry in admission order; [f] must not admit or remove. *)
val iter : t -> (entry -> unit) -> unit

(** Flows on the overlay with first hop [dpid], recently alive
    ([horizon] seconds) and longer than one packet — the set pinned
    during withdrawal (§5.5).  One-packet probes (the bulk of a spoofed
    DDoS) need no pin.  Listed in admission order. *)
val overlay_flows_of_switch :
  t -> horizon:float -> now:float -> int -> entry list
