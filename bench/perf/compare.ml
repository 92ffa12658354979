(* `perf.exe compare`: the small-sandbox rule for claiming a gain, over
   the bench's own result files (written with --json).  The i-th base
   file and the i-th change file form a pair; run them alternately
   (base, change, change, base, ...) so drift hits both sides. *)

let min_pairs = 10

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the default "exclusive" method). *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type row = {
  workload : string;
  metric : Metric.t;
  base : float list;
  change : float list;
}

(* The value a result file reports for one workload and metric. *)
let value_of file ~workload (m : Metric.t) =
  let ( >>= ) = Option.bind in
  Json.member "workloads" file
  |> Option.map Json.to_list
  |> Option.value ~default:[]
  |> List.find_opt (fun w -> (Json.member "name" w >>= Json.to_str) = Some workload)
  >>= fun w ->
  match m.Metric.tier with
  | Metric.End_to_end ->
    Json.member "end_to_end" w >>= Json.member m.Metric.name >>= Json.member "value"
    >>= Json.to_num
  | Metric.Simulated -> Json.member "simulated" w >>= Json.member m.Metric.name >>= Json.to_num
  | Metric.Layer -> None

let verdict r =
  let m = r.metric in
  let pairs = min (List.length r.base) (List.length r.change) in
  let bq1, bmed, bq3 = quartiles r.base and cq1, cmed, cq3 = quartiles r.change in
  let better a ~than = Metric.worse m ~base:a than in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.fold_left2 (fun acc b c -> if better c ~than:b then acc + 1 else acc) 0 (take r.base)
      (take r.change)
  in
  let rel x med = if med = 0.0 then 0.0 else x /. Float.abs med in
  let spread = Float.max (rel (bq3 -. bq1) bmed) (rel (cq3 -. cq1) cmed) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> better c ~than:b) r.base) r.change
  in
  let v =
    if pairs < min_pairs then "too few pairs"
    else if take r.base = take r.change then "unchanged" (* same seeds, deterministic value *)
    else if
      10 * wins >= 9 * pairs && Float.abs (cmed -. bmed) > bq3 -. bq1 && better cmed ~than:bmed
    then "gain"
    else if Metric.worse m ~base:bmed cmed && rel (Float.abs (cmed -. bmed)) bmed > m.Metric.bound
    then "worse"
    else if spread > m.Metric.bound && not all_better then "unresolved"
    else "unchanged"
  in
  ((bq1, bmed, bq3), (cq1, cmed, cq3), wins, pairs, v)

let run ~base ~change =
  let load = List.map Json.of_file in
  let base = load base and change = load change in
  let rows =
    List.concat_map
      (fun (w : Workload.t) ->
        List.filter_map
          (fun (m : Metric.t) ->
            let applies = Metric.applies m ~churn:w.Workload.churn ~verify:w.Workload.verify in
            if m.Metric.tier = Metric.Layer || not applies then None
            else
              let vals = List.filter_map (fun f -> value_of f ~workload:w.Workload.name m) in
              match (vals base, vals change) with
              | [], _ | _, [] -> None
              | b, c -> Some { workload = w.Workload.name; metric = m; base = b; change = c })
          Metric.all)
      Workload.all
  in
  Printf.printf "%-14s %-24s %-9s %33s %33s %7s  %s\n" "workload" "metric" "unit"
    "base median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  let worse = ref 0 in
  List.iter
    (fun r ->
      let (bq1, bmed, bq3), (cq1, cmed, cq3), wins, pairs, v = verdict r in
      if v = "worse" then incr worse;
      Printf.printf "%-14s %-24s %-9s %11.5g [%9.5g, %9.5g] %11.5g [%9.5g, %9.5g] %3d/%-3d  %s\n"
        r.workload r.metric.Metric.name r.metric.Metric.unit_ bmed bq1 bq3 cmed cq1 cq3 wins pairs v)
    rows;
  if rows = [] then prerr_endline "compare: no workload appears on both sides";
  if !worse > 0 || rows = [] then 1 else 0
