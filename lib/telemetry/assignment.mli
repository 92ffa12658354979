(** Floware-style monitoring-duty ledger: which uplink tunnels each
    active pool member samples and the duty share each owns.  Refresh
    on every pool change. *)

type t

val create : unit -> t

(** Recompute the duty map from the overlay uplink table ([(phys dpid,
    (vswitch dpid, tunnel id) list)]) restricted to the [active] pool;
    bumps {!generation}. *)
val refresh : t -> uplinks:(int * (int * int) list) list -> active:int list -> unit

(** Uplink tunnel ids that are [vdpid]'s monitoring duty (empty for
    non-members). *)
val duty_tunnels : t -> int -> int list

(** Fraction of the monitored flow space owned by [vdpid]. *)
val share : t -> int -> float

(** Active pool members, sorted. *)
val members : t -> int list

val generation : t -> int

