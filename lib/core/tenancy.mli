(** Multi-tenant blast-radius isolation in the Scotch app: which tenant
    a flow belongs to, which select group and which slice of a switch's
    vswitch assignment each tenant gets, the per-tenant pin budgets and
    classifiers at every OFA, and the per-tenant metrics.

    With [Config.tenancy = None] a run is the one tenant
    {!Tenant.default}, owning select group 1 and the whole assignment,
    so everything built here is the single-tenant design's. *)

open Scotch_openflow
open Scotch_switch

type t

(** Raises [Invalid_argument] on a malformed tenant set
    ({!Tenant.check_specs}).  With tenants configured, registers the
    per-tenant metrics, read through [admission_sum]
    ({!Scotch.admission_sum}'s fold over the managed switches'
    schedulers and the pool members' OFAs). *)
val create :
  Config.t -> admission_sum:(sched:(Sched.t -> int) -> ofa:(Ofa.t -> int) -> int) -> t

(** The configured tenants, or [[Tenant.default]]. *)
val tenants : t -> Tenant.spec list

(** The tenant a new flow is attributed to, from its first-hop switch
    and ingress port. *)
val tenant_of_flow : t -> first_hop:int -> ingress_port:int -> Tenant.id

(** [group_slices t assigned] splits a switch's vswitch assignment into
    one [(select group id, slice)] per tenant, in tenant order from
    group 1: disjoint contiguous slices sized by share with largest
    remainder, except that a tenant whose slice would be empty gets the
    whole assignment. *)
val group_slices : t -> 'a list -> (int * 'a list) list

(** The slice of [assigned] a tenant's select group hashes over. *)
val slice_of_tenant : t -> 'a list -> Tenant.id -> 'a list

(** The table-1 rule that balances redirected flows into the shared
    select group; none with tenants configured. *)
val balancer : t -> Of_msg.Flow_mod.t list

(** Instructions sending a flow from ingress [port] onto the overlay:
    tag the port, then continue to table 1 or, with tenants configured,
    jump straight into the tenant's own select group. *)
val overlay_instructions : t -> port:int -> tenant:Tenant.id -> Of_action.instructions

(** [decision_args t ~tenant ~dur outcome pool] — the args of a
    routing-decision span.  With tenants configured they also name the
    tenant, and [dur] lands in the tenant's own histogram. *)
val decision_args :
  t -> tenant:Tenant.id -> dur:float -> string -> string * string -> (string * string) list

(** Give an OFA every tenant's pin-queue budget. *)
val set_pin_budgets : t -> Ofa.t -> unit

(** Attribute a physical switch's Packet-Ins by in_port. *)
val classify_edge : t -> Ofa.t -> dpid:int -> unit

(** Attribute a pool member's Packet-Ins to the origin switch of their
    uplink tunnel and the ingress port in their outer MPLS tag. *)
val classify_pool : t -> Ofa.t -> Overlay.t -> unit
