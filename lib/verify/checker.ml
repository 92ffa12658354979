(** The static dataplane analyzer: every registered invariant
    ({!Invariant.all}) over a {!Snapshot.t}, no traffic required.

    The per-invariant logic lives in the [Inv_*] modules; this is the
    whole-snapshot composition.  The incremental verifier
    ({!Incremental}) reuses the same modules per node/class, so the two
    paths cannot drift apart. *)

module D = Diagnostic

let check snap =
  D.normalize
    (List.concat_map (fun (module I : Invariant.S) -> I.snapshot snap) Invariant.all)
