(* First-class tenant identity for control-plane blast-radius
   isolation.  A tenant is a slice of the SDN fabric's control budget:
   it owns a weighted share of the overlay select groups, an admission
   budget on every Fig. 7 scheduler and OFA pin queue, and its own
   view in the elastic autoscaler.  A run with no tenancy configured is
   one default tenant: share 1, no budgets. *)

type id = int

let default_id = 0

type spec = {
  id : id;
  name : string;
  share : int;
  sched_budget : int option;
  pin_budget : int option;
}

let default =
  { id = default_id; name = "default"; share = 1; sched_budget = None; pin_budget = None }

let check_spec s =
  if s.share < 1 then invalid_arg "Tenant: share must be >= 1";
  let budget what = function
    | Some b when b < 1 -> invalid_arg ("Tenant: " ^ what ^ " must be >= 1")
    | _ -> ()
  in
  budget "sched_budget" s.sched_budget;
  budget "pin_budget" s.pin_budget

let make ?sched_budget ?pin_budget ?(share = 1) ~id name =
  let s = { id; name; share; sched_budget; pin_budget } in
  check_spec s;
  s

let check_specs specs =
  if specs = [] then invalid_arg "Tenant.check_specs: empty tenant list";
  List.iter check_spec specs;
  let ids = List.map (fun s -> s.id) specs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Tenant.check_specs: duplicate tenant ids"

(* Largest-remainder apportionment of [slots] select-group buckets
   over weighted shares.  Deterministic: remainder ties break toward
   the earlier tenant in the list.  When the pool is at least as large
   as the tenant count, every tenant is guaranteed one slot — a tenant
   with zero buckets would silently lose its data path. *)
let apportion ~slots ~shares =
  if slots < 0 then invalid_arg "Tenant.apportion: negative slots";
  match shares with
  | [] -> []
  | shares ->
    let shares = List.map (fun (id, s) -> (id, Stdlib.max 1 s)) shares in
    let total = List.fold_left (fun acc (_, s) -> acc + s) 0 shares in
    let base =
      List.map (fun (id, s) -> (id, slots * s / total, slots * s mod total)) shares
    in
    let given = List.fold_left (fun acc (_, b, _) -> acc + b) 0 base in
    let leftover = slots - given in
    let by_remainder =
      List.mapi (fun i (id, b, r) -> (i, id, b, r)) base
      |> List.sort (fun (i1, _, _, r1) (i2, _, _, r2) ->
             match compare r2 r1 with 0 -> compare i1 i2 | c -> c)
    in
    let alloc = Hashtbl.create 8 in
    List.iteri
      (fun k (_, id, b, _) ->
        Hashtbl.replace alloc id (b + if k < leftover then 1 else 0))
      by_remainder;
    let result = List.map (fun (id, _) -> (id, Hashtbl.find alloc id)) shares in
    if slots < List.length result then result
    else begin
      let arr = Array.of_list result in
      let donor () =
        let best = ref 0 in
        Array.iteri
          (fun i (_, n) ->
            let _, bn = arr.(!best) in
            if n > bn then best := i)
          arr;
        !best
      in
      Array.iteri
        (fun i (id, n) ->
          if n = 0 then begin
            let d = donor () in
            let did, dn = arr.(d) in
            if dn > 1 then begin
              arr.(d) <- (did, dn - 1);
              arr.(i) <- (id, 1)
            end
          end)
        arr;
      Array.to_list arr
    end
