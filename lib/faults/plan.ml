(** Fault plans: a schedule of {!Fault.t} values with stable ids.

    A plan is an explicit list (targeted what-if scenarios: "kill
    vswitch 101 at t=12"); seeded background fault weather is
    {!Scotch_chaos.Gen}'s job.  Plans compose with {!merge}, and ids
    follow injection order, so a run's recovery ledger is reproducible
    bit-for-bit. *)

type t = { faults : (int * Fault.t) list } (* (id, fault), sorted by Fault.compare *)

let empty = { faults = [] }

(** [of_list faults] sorts by injection time and assigns ids 0, 1, …
    in that order. *)
let of_list faults =
  { faults = List.stable_sort Fault.compare faults |> List.mapi (fun i f -> (i, f)) }

(** [merge a b] combines two plans and renumbers. *)
let merge a b = of_list (List.map snd a.faults @ List.map snd b.faults)

let faults t = t.faults

let length t = List.length t.faults

(** Latest fault-clearing time in the plan ([neg_infinity] when empty);
    lets callers size the simulation horizon. *)
let last_activity t =
  List.fold_left
    (fun acc (_, f) ->
      let e = Fault.ends_at f in
      Stdlib.max acc (if e = infinity then f.Fault.at else e))
    neg_infinity t.faults

let pp fmt t =
  Format.fprintf fmt "plan[%d faults]" (length t);
  List.iter (fun (i, f) -> Format.fprintf fmt "@ #%d %a" i Fault.pp f) t.faults
