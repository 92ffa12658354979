(* The bench's own spans, kept in memory and written at exit as Chrome
   trace-event JSON (load in chrome://tracing or Perfetto).  Each span
   records the span that caused it; every span of a workload descends
   from that workload's root span. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  start : float;  (** seconds since the bench started *)
  dur : float;
}

let origin = Unix.gettimeofday ()
let recorded = ref []
let next_id = ref 0

(* [with_span ?parent ~cat name f] runs [f id] inside a span; [id] is
   the parent to hand to nested spans. *)
let with_span ?parent ~cat name f =
  incr next_id;
  let id = !next_id in
  let start = Unix.gettimeofday () -. origin in
  let finish () =
    let dur = Unix.gettimeofday () -. origin -. start in
    recorded := { id; parent; name; cat; start; dur } :: !recorded
  in
  Fun.protect ~finally:finish (fun () -> f id)

let to_json () =
  let event s =
    Json.Obj
      [ ("name", Json.Str s.name); ("cat", Json.Str s.cat); ("ph", Json.Str "X");
        ("ts", Json.Num (s.start *. 1e6)); ("dur", Json.Num (s.dur *. 1e6));
        ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
        ("args",
          Json.Obj
            (("id", Json.Num (float_of_int s.id))
            :: (match s.parent with None -> [] | Some p -> [ ("parent", Json.Num (float_of_int p)) ])))
      ]
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.rev_map event !recorded));
      ("displayTimeUnit", Json.Str "ms") ]

let write path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json ()));
  output_char oc '\n';
  close_out oc
