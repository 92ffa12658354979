(** The recovery ledger: what the control plane did about each fault.

    One record per injected fault.  For vswitch crashes the milestones
    are §5.6's: heartbeat-loss detection, select groups clean of the
    corpse, flows lost while degraded.  Everything is derived from the
    deterministic simulation, so two runs with the same seed and plan
    produce byte-identical ledgers — {!digest} is the equality check
    tests use. *)

type record = {
  id : int;  (** the plan's fault id *)
  label : string;
  injected_at : float;
  mutable detected_at : float option;
      (** heartbeat loss noticed (crashes) *)
  mutable rebalanced_at : float option;
      (** all select groups clean again *)
  mutable cleared_at : float option;
      (** fault lifted / device recovered *)
  mutable flows_lost : int;
      (** dropped + unroutable during the outage *)
  mutable backup_promoted : int option;
      (** dpid of the backup that took over *)
}

(** Convergence metrics of the reliable layer (PR 3), filled in by
    experiments that run with reconciliation enabled.  Optional so that
    runs without the reliable layer keep byte-identical ledgers. *)
type convergence = {
  conv_retries : int;
  conv_repaired_missing : int;
  conv_repaired_orphans : int;
  conv_repaired_groups : int;
  conv_resyncs : int;
  conv_txns_parked : int;
  conv_degraded_seconds : float;
  conv_chan_dropped : int;
  conv_expired_requests : int;
  conv_windows : float list;  (** closed divergence windows, closing order *)
  conv_digest : string;  (** reconciliation-ledger digest *)
}

type t

val create : unit -> t
val set_convergence : t -> convergence -> unit
val convergence : t -> convergence option
val add : t -> id:int -> label:string -> injected_at:float -> record

(** Records in plan (id) order. *)
val records : t -> record list

val find : t -> int -> record option
val length : t -> int

(** Seconds from injection to heartbeat-loss detection. *)
val detection_latency : record -> float option

(** Seconds from injection until every select group was clean of the
    dead vswitch (includes the detection latency). *)
val time_to_rebalance : record -> float option

(** The ledger as labelled (x, y) series with the fault id on the x
    axis — the shape [Scotch_experiments.Report.series] wants. *)
val to_series : t -> (string * (float * float) list) list

val print : t -> unit

(** Canonical dump: every field of every record at full float
    precision, in id order.  Two ledgers are equal iff their dumps
    are. *)
val canonical : t -> string

(** Hex digest of {!canonical}: the bit-identical-recovery check. *)
val digest : t -> string
