(* Multi-tenant blast-radius isolation in the Scotch app; see
   tenancy.mli.  An untenanted run is the one tenant [Tenant.default] at
   index 0: it owns [group_id] and the whole assignment.  Only the forks
   that change what is emitted ask whether tenants are configured. *)

open Scotch_openflow
open Scotch_switch
module Registry = Scotch_obs.Registry
module Admission = Scotch_util.Admission

let group_id = 1

type t = {
  tenancy : Config.tenancy option;
  tenants : Tenant.spec list;
      (* the configured tenants, or [[Tenant.default]] when untenanted;
         list index i owns select group [group_id + i] *)
  decision_h : (int, Registry.histogram) Hashtbl.t;
      (* per-tenant admit → decision histograms; populated only when
         tenants are configured *)
}

let create (config : Config.t) ~admission_sum =
  let module O = Scotch_obs.Obs in
  let tenants =
    match config.Config.tenancy with None -> [ Tenant.default ] | Some tn -> tn.Config.tenants
  in
  Tenant.check_specs tenants;
  let t = { tenancy = config.Config.tenancy; tenants; decision_h = Hashtbl.create 4 } in
  (* Per-tenant views of admissions, sheds, pin load and decision
     latency.  Registered only for configured tenants: untenanted runs
     export exactly the metric set they always did. *)
  if t.tenancy <> None then
    List.iter
      (fun (s : Tenant.spec) ->
        let labels = [ ("tenant", s.Tenant.name) ] in
        let tenant = s.Tenant.id in
        Hashtbl.replace t.decision_h tenant
          (O.histogram ~help:"Flow admit to routing decision (virtual seconds)" ~labels ~lo:0.0
             ~hi:0.5 ~bins:50 "scotch_core_tenant_decision_latency_seconds");
        let sched tally s = tally (Sched.admission s) ~tenant
        and ofa tally o = tally (Ofa.admission o) ~tenant
        and none _ = 0 in
        O.counter_fn ~help:"New-flow requests submitted per tenant" ~labels
          "scotch_core_tenant_admissions_total" (fun () ->
            admission_sum ~sched:(sched Admission.submitted) ~ofa:none);
        O.counter_fn
          ~help:"Flows shed per tenant (budget refusals, capacity drops, evictions, expiries)"
          ~labels "scotch_core_tenant_sheds_total" (fun () ->
            admission_sum ~sched:(sched Admission.shed) ~ofa:(ofa Admission.shed));
        O.counter_fn ~help:"Packet-In jobs attributed per tenant at the overlay pool" ~labels
          "scotch_core_tenant_pins_total" (fun () ->
            admission_sum ~sched:none ~ofa:(ofa Admission.submitted)))
      tenants;
  t

let tenants t = t.tenants

let tenant_of_flow t ~first_hop ~ingress_port =
  match t.tenancy with
  | None -> Tenant.default_id
  | Some tn -> tn.Config.tenant_of ~first_hop ~ingress_port

(* The tenant at index [i] of the list owns select group
   [group_id + i]; an unknown tenant falls back to the first group. *)
let group_of_tenant t tenant =
  let rec go i = function
    | [] -> group_id
    | (s : Tenant.spec) :: rest -> if s.Tenant.id = tenant then group_id + i else go (i + 1) rest
  in
  go 0 t.tenants

(* Disjoint contiguous slices of the (rotated) assignment, apportioned
   by share with largest remainder; a tenant whose slice would be empty
   (pool smaller than the tenant count) shares the whole assignment
   rather than losing overlay service. *)
let slices t assigned =
  let shares = List.map (fun (s : Tenant.spec) -> (s.Tenant.id, s.Tenant.share)) t.tenants in
  let counts = Tenant.apportion ~slots:(List.length assigned) ~shares in
  let rec split n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: tl ->
        let a, b = split (n - 1) tl in
        (x :: a, b)
  in
  let rec go acc remaining = function
    | [] -> List.rev acc
    | (id, n) :: more ->
      let sl, rest = split n remaining in
      let sl = if sl = [] then assigned else sl in
      go ((id, sl) :: acc) rest more
  in
  go [] assigned counts

let group_slices t assigned = List.mapi (fun i (_, sl) -> (group_id + i, sl)) (slices t assigned)

let slice_of_tenant t assigned tenant =
  match List.assoc_opt tenant (slices t assigned) with Some slice -> slice | None -> assigned

(* Untenanted, table 1's single rule balances everything into the
   shared group.  With tenants configured that shared balancer cannot
   discriminate tenants, so there is no table-1 rule and each redirect
   jumps straight into its tenant's own select group instead. *)
let balancer t =
  match t.tenancy with
  | Some _ -> []
  | None ->
    [ Of_msg.Flow_mod.add ~table_id:1 ~priority:0 ~cookie:Config.cookie_green
        ~match_:Of_match.wildcard
        ~instructions:[ Of_action.Apply_actions [ Of_action.Group group_id ] ]
        () ]

let overlay_instructions t ~port ~tenant =
  match t.tenancy with
  | None -> [ Of_action.Apply_actions [ Of_action.Push_mpls port ]; Of_action.Goto_table 1 ]
  | Some _ ->
    [ Of_action.Apply_actions
        [ Of_action.Push_mpls port; Of_action.Group (group_of_tenant t tenant) ] ]

let tenant_name t tenant =
  let rec go = function
    | [] -> string_of_int tenant
    | (s : Tenant.spec) :: rest -> if s.Tenant.id = tenant then s.Tenant.name else go rest
  in
  go t.tenants

let decision_args t ~tenant ~dur outcome pool =
  match t.tenancy with
  | None -> [ ("outcome", outcome); pool ]
  | Some _ ->
    (match Hashtbl.find_opt t.decision_h tenant with
    | Some h -> Registry.observe h dur
    | None -> ());
    [ ("outcome", outcome); ("tenant", tenant_name t tenant); pool ]

let set_pin_budgets t ofa =
  List.iter
    (fun (s : Tenant.spec) ->
      Option.iter
        (Admission.set_budget (Ofa.admission ofa) ~tenant:s.Tenant.id)
        s.Tenant.pin_budget)
    t.tenants

(* Direct Packet-Ins at the physical edge are attributed by their
   in_port — spoofed sources cannot escape their tenant. *)
let classify_edge t ofa ~dpid =
  match t.tenancy with
  | None -> ()
  | Some tn ->
    Ofa.set_pin_tenant_classifier ofa (fun (j : Ofa.pin_job) ->
        tn.Config.tenant_of ~first_hop:dpid ~ingress_port:j.Ofa.in_port)

(* Pin jobs at a pool member arrive over uplink tunnels; recover the
   origin switch from the tunnel and the ingress port from the outer
   MPLS tag pushed by the redirect, then attribute exactly as at the
   edge.  Mesh-repair arrivals (no known origin) stay on the default
   tenant. *)
let classify_pool t ofa overlay =
  match t.tenancy with
  | None -> ()
  | Some tn ->
    Ofa.set_pin_tenant_classifier ofa (fun (j : Ofa.pin_job) ->
        match j.Ofa.tunnel_id with
        | Some tid -> (
          match Overlay.origin_of_tunnel overlay tid with
          | Some origin ->
            let ingress_port =
              match Scotch_packet.Packet.outer_mpls_label j.Ofa.packet with
              | label -> label
              | exception Not_found -> 0
            in
            tn.Config.tenant_of ~first_hop:origin ~ingress_port
          | None -> Tenant.default_id)
        | None -> Tenant.default_id)
