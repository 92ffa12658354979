(** Floware-style monitoring-duty ledger: which uplink tunnels each
    active pool member samples.  Refresh on every pool change. *)

type t

val create : unit -> t

(** Recompute the duty map from the overlay uplink table ([(phys dpid,
    (vswitch dpid, tunnel id) list)]) restricted to the [active]
    pool. *)
val refresh : t -> uplinks:(int * (int * int) list) list -> active:int list -> unit

(** Uplink tunnel ids that are [vdpid]'s monitoring duty (empty for
    non-members). *)
val duty_tunnels : t -> int -> int list
