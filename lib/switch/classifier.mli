(** A tuple-space classifier over flow rules: the one rule index behind
    every datapath flow table ({!Flow_table}) and behind every table of
    a verifier snapshot, which every invariant reads.

    Rules live in per-priority buckets, in descending priority.  A
    bucket holds one subtable per mask shape (fields pinned plus IP
    masks), in creation order.  A subtable keeps its rules in a dense
    array in install order and indexes them with an open-addressed
    table on its own hash of the pinned fields, so adding or removing a
    rule is one amortised O(1) operation and a lookup makes one probe
    per subtable, building no key and allocating nothing: a miss
    returns the {!vacant} sentinel.  Within a priority, a lookup picks
    the matching rule first in {!precedence} order.

    {b Rule order}: descending priority, then subtable creation order,
    then install order; a rule that replaces or displaces another takes
    the newer position.  {!fold}, {!to_list}, {!remove_where} and
    {!fold_covered} follow it, and nothing depends on hashing.

    The same layout answers the shadow invariant's cover queries
    ({!fold_covering}, {!fold_covered}) with a probe per subtable of a
    related shape.  A (priority, match) pair
    is a rule's {e slot}: a classifier holds at most one rule per slot.
    Matches are compared as stored, so callers store
    {!Of_match.canonical} ones. *)

open Scotch_openflow

type rule = {
  priority : int;
  match_ : Of_match.t;
  instructions : Of_action.instructions;
  idle_timeout : float; (** 0 = none *)
  hard_timeout : float;
  cookie : Of_types.cookie;
  installed_at : float;
  mutable last_used : float;
  mutable packet_count : int;
  mutable byte_count : int;
}

type t

val create : unit -> t

(** [of_list rules] stores the rules as they are, subtables sized from
    the list; a later rule displaces an earlier one in its slot. *)
val of_list : rule list -> t

(** Rules held. *)
val length : t -> int

val is_empty : t -> bool

(** Has [r] timed out at [now]?  Nothing has at [neg_infinity]. *)
val expired : now:float -> rule -> bool

(** Rule order: negative when [a] comes before [b] — higher priority,
    then more fields pinned ({!Of_match.specificity}), then structural
    match order.  Among rules matching one packet, {!lookup} picks the
    first. *)
val precedence : rule -> rule -> int

(** The rule in slot ([priority], [match_]), if any. *)
val find : t -> priority:int -> Of_match.t -> rule option

(** The rules whose match is [match_], at most one per priority, in
    descending priority. *)
val find_all : t -> Of_match.t -> rule list

(** Store [r]; its slot must be free. *)
val add : t -> rule -> unit

(** Empty [r]'s slot (a no-op when it already is). *)
val remove : t -> rule -> unit

(** Remove every rule [dead] selects and return them in rule order. *)
val remove_where : t -> (rule -> bool) -> rule list

(** Drop the buckets and subtables removals left empty, and repack the
    others' arrays over the entries removals vacated. *)
val compact : t -> unit

(** What {!lookup} returns on a miss: a rule held by no classifier,
    compared with [==]. *)
val vacant : rule

(** The rule matching packet [p] arriving on [in_port] (through tunnel
    [tunnel_id]) that comes first in {!precedence} order among those
    not {!expired} at [now], or {!vacant}.  The verifier's walk passes
    [neg_infinity] and so sees every rule. *)
val lookup :
  t -> now:float -> in_port:int -> tunnel_id:int option -> Scotch_packet.Packet.t -> rule

(** [fold_covering f t r acc] folds [f] over the rules above [r]'s
    priority whose match {!Of_match.covers} [r]'s: one probe per subtable
    whose shape is coarser than [r]'s.  [r]'s match is canonical; [r]
    itself need not be held. *)
val fold_covering : (rule -> 'a -> 'a) -> t -> rule -> 'a -> 'a

(** [fold_covered f t r acc] folds [f] over the rules below [r]'s
    priority whose match [r]'s covers, in rule order: one probe into
    [r]'s own shape and a scan of each strictly finer one. *)
val fold_covered : (rule -> 'a -> 'a) -> t -> rule -> 'a -> 'a

(** [fold f t acc] folds [f] over the rules in the rule order, last
    first: with [List.cons] it lists them in order. *)
val fold : (rule -> 'a -> 'a) -> t -> 'a -> 'a

(** {!fold} with [List.cons]: the rules in order. *)
val to_list : t -> rule list

(** The most index slots a probe visits to reach a held rule, over
    every subtable: how well the hash spreads the rules. *)
val longest_probe : t -> int
