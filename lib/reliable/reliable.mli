(** Reliable control-channel layer: per-switch intent store,
    barrier-acked transactional installs with retry/backoff and a
    [Healthy]/[Degraded] state machine, plus an anti-entropy
    reconciler that diffs intent against device state and repairs
    divergence.  See the implementation header for the full design. *)

open Scotch_openflow
module C = Scotch_controller.Controller

type health = Healthy | Degraded

(** Attempts beyond which the switch degrades (3). *)
val retry_budget : int

(** Period of the reconciler timer, s (0.5). *)
val reconcile_interval : float

(** Rules and intents younger than this, s, are left alone: their
    install may still be in flight (0.75). *)
val repair_grace : float

type stats = {
  mutable txns_sent : int;
  mutable txns_acked : int;
  mutable txns_parked : int;   (** abandoned because the switch died *)
  mutable retries : int;
  mutable repairs_missing : int;
  mutable repairs_orphan : int;
  mutable repairs_group : int;
  mutable resyncs : int;
  mutable degraded_transitions : int;
  mutable degraded_seconds : float;
}

type event =
  | Repair of { missing : int; orphans : int; group_fixes : int }
  | Resync
  | Converged of float  (** closed divergence window, seconds *)
  | Degraded_enter
  | Degraded_exit of float
  | Parked of int

type record = {
  id : int;
  at : float;
  dpid : int;
  event : event;
}

type t

(** [create ~seed ~owned_cookies ctrl] — [seed] drives the retry
    backoff's jitter; [owned_cookies] are the cookies whose orphaned
    device rules the reconciler may delete.  Transactions are windowed
    4 per switch with a 0.25 s barrier deadline, retried under
    exponential backoff (50 ms base, doubling, 1 s cap, ±25 % jitter);
    the reconciler ticks every {!reconcile_interval} from t = 0.25 s
    and waits 0.5 s for stats replies. *)
val create : seed:int -> owned_cookies:Of_types.cookie list -> C.t -> t

val owned_cookies : t -> Of_types.cookie list
val stats : t -> stats

(** Put a switch under reliable management (idempotent). *)
val register_switch : t -> C.sw -> unit

val intent_of : t -> Of_types.datapath_id -> Intent.t option
val dpids : t -> Of_types.datapath_id list

(** Queued plus in-flight transactions for one switch. *)
val outstanding : t -> Of_types.datapath_id -> int

(** No queued or in-flight transactions, no pending resync and no
    detected-but-unrepaired divergence anywhere. *)
val converged : t -> bool

(** Closed divergence windows (first detection → clean diff), in
    closing order. *)
val divergence_windows : t -> float list

(** Record every payload's intent and ship the batch as one
    barrier-acked transaction.  Payloads must be Flow_mod/Group_mod. *)
val transaction : t -> C.sw -> Of_msg.payload list -> unit

(** Attach (or detach, with [None]) an intent observer, fired with the
    dpid after that switch's intent store changed: a transaction's
    records, or the reconciler forgetting rules the switch expired.
    The incremental verifier reads the store in place and re-diffs that
    switch.  [None] (the default) costs one [match] per change. *)
val set_on_intent : t -> (int -> unit) option -> unit

(** Flag a switch for a full-table resync at the next reconciler tick —
    wire this to the controller's [switch_alive] hook. *)
val request_resync : t -> Of_types.datapath_id -> unit

(** Start the periodic reconciler on the controller's engine (idempotent). *)
val start : t -> unit

(** One reconciler round, on demand (tests). *)
val tick : t -> unit

(** {1 Reconciliation ledger} *)

val canonical : t -> string

(** MD5 hex of {!canonical} — the bit-identity check for seeded runs. *)
val digest : t -> string
