(** The instruction values of the per-flow rules, built once per output
    port per run.

    Every per-flow rule Scotch installs (the overlay vflows at the entry
    and cover vswitches, the delivery repair, the red rules of a
    physical path) forwards to one port, either as is or after popping
    the inner ingress label (§5.2).  A table maps each port to both
    shapes, built at the port's first use, so the rules and Packet-Outs
    of a run share one immutable value per port and shape instead of
    each building its own copy.  One table belongs to one Scotch
    instance: two networks in one process never share values. *)

open Scotch_openflow

(** The two shapes of an output to [port].  [out] is
    [[Output (Physical port)]]; [pop] is [Pop_mpls :: out].  Each
    [_instructions] is its list under one [Apply_actions]. *)
type shapes = private {
  port : int;
  out : Of_action.t list;
  out_instructions : Of_action.instructions;
  pop : Of_action.t list;
  pop_instructions : Of_action.instructions;
}

type t

(** An empty table; it allocates no entry until the first {!find}. *)
val create : unit -> t

(** The shapes of [port], built and kept at its first lookup; a later
    lookup allocates nothing. *)
val find : t -> int -> shapes
