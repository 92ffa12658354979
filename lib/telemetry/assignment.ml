(** Floware-style monitoring-duty assignment across the overlay pool.

    Monitoring duty is spread so no single vswitch carries the load:
    each active pool member samples exactly the flows whose {e entry}
    hop it is — the per-switch select groups already partition the flow
    space over the pool, so duty shares follow the load-balancer's own
    proportions.  This module is the controller-side ledger of that
    partition: which uplink tunnels are each member's duty and what
    fraction of the monitored flow space each member owns.

    Refreshed on every pool change (failure, quarantine, promotion,
    demotion, join), bumping {!generation}; members outside the active
    pool hold no duty and their samplers are disabled. *)

type t = {
  mutable duties : (int, int list) Hashtbl.t; (* vswitch dpid -> duty tunnel ids *)
  mutable shares : (int, float) Hashtbl.t;
  mutable members : int list; (* active pool, sorted *)
  mutable generation : int;
}

let create () =
  { duties = Hashtbl.create 16; shares = Hashtbl.create 16; members = []; generation = 0 }

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
  let total = ref 0 in
  List.iter
    (fun (_phys, ups) ->
      List.iter
        (fun (vdpid, tid) ->
          if is_active vdpid then begin
            incr total;
            let prev = Option.value (Hashtbl.find_opt duties vdpid) ~default:[] in
            Hashtbl.replace duties vdpid (tid :: prev)
          end)
        ups)
    uplinks;
  let shares = Hashtbl.create 16 in
  Hashtbl.iter
    (fun vdpid tids ->
      Hashtbl.replace duties vdpid (List.sort compare tids);
      Hashtbl.replace shares vdpid
        (if !total = 0 then 0.0 else float_of_int (List.length tids) /. float_of_int !total))
    duties;
  t.duties <- duties;
  t.shares <- shares;
  t.members <- List.sort compare active;
  t.generation <- t.generation + 1

(** Uplink tunnel ids that are [vdpid]'s monitoring duty (empty for
    non-members). *)
let duty_tunnels t vdpid = Option.value (Hashtbl.find_opt t.duties vdpid) ~default:[]

(** Fraction of the monitored flow space owned by [vdpid]. *)
let share t vdpid = Option.value (Hashtbl.find_opt t.shares vdpid) ~default:0.0

let members t = t.members
let generation t = t.generation

