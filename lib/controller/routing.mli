(** Baseline reactive routing application: the plain OpenFlow workflow
    of §3.1 — on Packet-In, compute a shortest path, install an
    exact-match rule at every switch on it (destination-first, priority
    10, idle timeout 10 s as in §6.1) and Packet-Out the first packet.
    No protection against control-path overload; this is what Figs. 3
    and 4 measure. *)

type t

val create : Controller.t -> t

(** The Packet-In handler ([false] for tunneled Packet-Ins, which
    belong to the Scotch app). *)
val handle_packet_in : t -> Controller.sw -> Scotch_openflow.Of_msg.Packet_in.t -> bool

(** The controller app record to register. *)
val app : t -> Controller.app

(** Install the table-miss rule (priority 0, wildcard → controller) —
    the default OpenFlow reactive posture. *)
val install_table_miss : Controller.t -> Controller.sw -> unit

val flows_admitted : t -> int
val flows_unroutable : t -> int
