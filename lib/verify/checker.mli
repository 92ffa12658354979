(** The static dataplane analyzer: checks the Scotch invariants
    against a {!Snapshot.t} without running traffic.

    {ol
    {- {b No forwarding loops}: a symbolic packet walk over every
       reachable flow-key equivalence class (exact rules installed
       anywhere, plus a synthetic flow per host pair) must never
       revisit a (switch, in-port, encapsulation-stack) state.}
    {- {b No blackholes}: every table hit ends at a host port, a live
       tunnel or the controller — never at an unknown port, a
       disconnected port, a rule with no actions, or a goto into the
       void.}
    {- {b No shadowed rules}: no higher-priority rule fully covers a
       lower-priority one in the same table.}
    {- {b Group sanity}: select groups are non-empty, and every bucket's
       tunnel endpoint is a live vswitch (§5.1, §5.6).}
    {- {b Table-miss coverage and overlay symmetry}: every controlled
       switch has its priority-0 wildcard miss rule, every uplink
       tunnel is in the origin map (§5.2), every host has an alive
       cover with a delivery tunnel, and every entry vswitch has a
       return path (mesh + delivery) to every host.}
    {- {b Zero intent/actual divergence}: when the snapshot carries a
       reliable layer's intent stores, every settled durable intent
       rule exists on the device, no reconciler-owned device rule or
       group lacks an intent, and group buckets match intent.}} *)

(** [check snap] runs every invariant and returns the sorted,
    de-duplicated findings (errors first, empty when clean). *)
val check : Snapshot.t -> Diagnostic.t list
