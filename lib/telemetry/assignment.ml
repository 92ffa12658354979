(** Floware-style monitoring-duty assignment across the overlay pool.

    Monitoring duty is spread so no single vswitch carries the load:
    each active pool member samples exactly the flows whose {e entry}
    hop it is — the per-switch select groups already partition the flow
    space over the pool, so duty shares follow the load-balancer's own
    proportions.  This module is the controller-side ledger of that
    partition: which uplink tunnels are each member's duty.

    Refreshed on every pool change (failure, quarantine, promotion,
    demotion, join); members outside the active pool hold no duty and
    their samplers are disabled. *)

type t = { mutable duties : (int, int list) Hashtbl.t (* vswitch dpid -> duty tunnel ids *) }

let create () = { duties = Hashtbl.create 16 }

(** [refresh t ~uplinks ~active] recomputes the duty map from the
    overlay's uplink table ([(phys dpid, (vswitch dpid, tunnel id)
    list)]) restricted to the [active] pool members. *)
let refresh t ~uplinks ~active =
  let duties = Hashtbl.create 16 in
  let is_active =
    let h = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace h v ()) active;
    fun v -> Hashtbl.mem h v
  in
  List.iter
    (fun (_phys, ups) ->
      List.iter
        (fun (vdpid, tid) ->
          if is_active vdpid then begin
            let prev = Option.value (Hashtbl.find_opt duties vdpid) ~default:[] in
            Hashtbl.replace duties vdpid (tid :: prev)
          end)
        ups)
    uplinks;
  Hashtbl.iter (fun vdpid tids -> Hashtbl.replace duties vdpid (List.sort compare tids)) duties;
  t.duties <- duties

(** Uplink tunnel ids that are [vdpid]'s monitoring duty (empty for
    non-members). *)
let duty_tunnels t vdpid = Option.value (Hashtbl.find_opt t.duties vdpid) ~default:[]

