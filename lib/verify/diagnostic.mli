(** Structured findings of the dataplane invariant checker.

    A diagnostic names the invariant class it violates, where it was
    found (switch, table, rule) and — when the checker has one — a
    witness flow key or walk trace demonstrating the violation. *)

(** [Error] means traffic is (or will be) misforwarded, looped or
    silently dropped; [Warning] means the state is suspicious but
    self-correcting (idle timeouts, admin-down links) or merely
    wasteful (shadowed rules). *)
type severity = Error | Warning

(** The invariant classes of the checker:
    {ul
    {- [Loop] — a reachable flow-key equivalence class forwards in a
       cycle;}
    {- [Blackhole] — a table hit that ends nowhere (no actions, dead
       port, goto into the void);}
    {- [Shadow] — a higher-priority rule fully covers a lower one,
       making it unreachable;}
    {- [Group_sanity] — empty select groups, buckets pointing at dead
       vswitch tunnels (§5.1/§5.6);}
    {- [Coverage] — a controlled switch without a table-miss rule, or
       broken overlay symmetry (an entry tunnel without a return
       path);}
    {- [Divergence] — the reliable layer's intent store disagrees with
       the device: a durable intent rule is missing, an orphaned
       reconciler-owned rule survives with no intent, or a group's
       device buckets differ from intent.}} *)
type invariant = Loop | Blackhole | Shadow | Group_sanity | Coverage | Divergence

(** What a finding is about: a rule, by its table slot, or a group.
    Kept as data and rendered only by {!to_string}, so clean checks print
    nothing. *)
type subject =
  | Rule of { priority : int; match_ : Scotch_openflow.Of_match.t }
  | Group of int

type t = {
  severity : severity;
  invariant : invariant;
  dpid : int option;      (** switch the finding is anchored at *)
  table_id : int option;
  rule : subject option;  (** the offending rule or group *)
  witness : string option; (** flow key or walk trace demonstrating it *)
  message : string;
  first_at : float option;
      (** Virtual time at which the incremental verifier first saw this
          violation; [None] for snapshot checks.  Ignored by {!compare},
          so diagnostic identity is independent of when it was found. *)
}

val make :
  ?dpid:int -> ?table_id:int -> ?rule:subject -> ?witness:string -> severity:severity ->
  invariant:invariant -> string -> t

(** Stamp the first-seen virtual time. *)
val with_first_at : float -> t -> t

val is_error : t -> bool
val invariant_name : invariant -> string

(** Total order (severity first, errors before warnings, then location)
    used to sort and de-duplicate reports.  [first_at] is ignored, so a
    violation found incrementally at t=3.2 equals the same violation
    found by a snapshot rescan.  The last tie-breaks are the structural
    subject, never its rendered text, then the witness. *)
val compare : t -> t -> int

(** Sort and drop exact duplicates. *)
val normalize : t list -> t list

val errors : t list -> t list

(** [prio P match{...}] or [group G]; every present match field is
    printed with its full mask, so distinct subjects print distinctly. *)
val pp_subject : Format.formatter -> subject -> unit

val to_string : t -> string
