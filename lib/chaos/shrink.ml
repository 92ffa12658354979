(** Schedule shrinking by delta debugging (Zeller's ddmin).

    Given a failing fault list and a [still_fails] predicate (one real
    simulation run per call), ddmin repeatedly tries sublists and
    complements at doubling granularity until the list is
    {e 1-minimal}: removing any single remaining fault makes the
    violation disappear.  The minimal list is what lands in the repro
    file — a 2-fault repro for a 15-fault schedule is the difference
    between a bug report and an afternoon of staring.

    The predicate must be deterministic (it is: the runner replays the
    same seed), and the input must fail ([ddmin] raises otherwise
    rather than hand back a vacuous answer).  Results are memoized on
    the candidate list, so re-testing a sublist ddmin has already seen
    costs nothing. *)

type stats = {
  tests : int;       (* predicate calls that ran a simulation *)
}

let partition xs n =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec go i xs acc =
    if i >= n then List.rev acc
    else begin
      let take = base + (if i < extra then 1 else 0) in
      let rec split k ys taken =
        if k = 0 then (List.rev taken, ys)
        else match ys with [] -> (List.rev taken, []) | y :: tl -> split (k - 1) tl (y :: taken)
      in
      let chunk, rest = split take xs [] in
      go (i + 1) rest (chunk :: acc)
    end
  in
  go 0 xs [] |> List.filter (fun c -> c <> [])

let complement_of chunks i =
  List.concat (List.filteri (fun j _ -> j <> i) chunks)

let ddmin ~still_fails xs =
  if xs = [] then invalid_arg "Shrink.ddmin: empty input";
  let tests = ref 0 in
  let memo = Hashtbl.create 64 in
  let fails l =
    match Hashtbl.find_opt memo l with
    | Some r -> r
    | None ->
      incr tests;
      let r = still_fails l in
      Hashtbl.replace memo l r;
      r
  in
  if not (fails xs) then invalid_arg "Shrink.ddmin: input does not fail";
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 then xs
    else begin
      let n = Stdlib.min n len in
      let chunks = partition xs n in
      match List.find_opt fails chunks with
      | Some c -> go c 2 (* a single chunk suffices: restart on it *)
      | None -> (
        let rec try_complements i =
          if i >= List.length chunks then None
          else
            let c = complement_of chunks i in
            if c <> [] && fails c then Some c else try_complements (i + 1)
        in
        match (if n = 2 then None else try_complements 0) with
        | Some c -> go c (Stdlib.max (n - 1) 2)
        | None -> if n < len then go xs (Stdlib.min len (2 * n)) else xs)
    end
  in
  let minimal = go xs 2 in
  (minimal, { tests = !tests })
