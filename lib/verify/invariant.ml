(** The invariant registry: one module per invariant class, all sharing
    {!S}, so the snapshot checker and the incremental verifier compose
    the exact same list — no copy-paste divergence between the two
    paths. *)

module type S = sig
  (** Short name, matching {!Diagnostic.invariant_name}. *)
  val name : string

  (** Run the invariant against a whole snapshot. *)
  val snapshot : Snapshot.t -> Diagnostic.t list
end

(** Every invariant, in report order.  {!Checker.check} concatenates
    these verbatim; {!Incremental} reuses the same modules' finer
    per-node/per-class entry points and falls back to this list for its
    full-rescan equivalence audits. *)
let all : (module S) list =
  [ (module Inv_loop);
    (module Inv_blackhole);
    (module Inv_shadow);
    (module Inv_group);
    (module Inv_coverage);
    (module Inv_divergence) ]
