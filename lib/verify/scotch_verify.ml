(** Dataplane invariant checker: static verification of flow tables,
    group tables and overlay state.

    Scotch rewrites dataplane state behind the OFA's back — table-miss
    redirects (§4.2), select-group buckets over tunnels (§5.1),
    migration rules (§5.3), withdrawal pins (§5.5) — and the fault
    injector churns all of it.  This library checks that the result is
    still a sane network, without running traffic:

    {[
      let snap = Scotch_verify.Snapshot.capture ~scotch:app ~now topo in
      match Scotch_verify.check snap with
      | [] -> ()  (* clean *)
      | diags -> List.iter (fun d -> print_endline (Scotch_verify.Diagnostic.to_string d)) diags
    ]}

    {!Hooks} runs the incremental form of the same checker under
    [Config.verify = Continuous], so every experiment doubles as a
    verification run. *)

module Diagnostic = Diagnostic
module Snapshot = Snapshot
module Invariant = Invariant
module Checker = Checker
module Incremental = Incremental
module Hooks = Hooks

(** Two per-invariant analyzers, whose finer entry points (one rule's
    grading, one class's walk, the audit's seed selection) the
    differential tests and the micro-benchmarks drive directly. *)
module Inv_blackhole = Inv_blackhole
module Inv_loop = Inv_loop

(** [check snap] runs the invariants — no loops, no blackholes, no
    shadowed rules, group sanity, miss coverage / overlay symmetry and
    (when the snapshot carries intent stores) zero intent/actual
    divergence — returning sorted, de-duplicated diagnostics (empty
    when clean). *)
let check = Checker.check
