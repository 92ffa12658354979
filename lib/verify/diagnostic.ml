(** Structured findings of the dataplane invariant checker. *)

type severity = Error | Warning

type invariant = Loop | Blackhole | Shadow | Group_sanity | Coverage | Divergence

type subject =
  | Rule of { priority : int; match_ : Scotch_openflow.Of_match.t }
  | Group of int

type t = {
  severity : severity;
  invariant : invariant;
  dpid : int option;
  table_id : int option;
  rule : subject option;
  witness : string option;
  message : string;
  first_at : float option;
      (** Virtual time at which the incremental verifier first saw this
          violation; [None] for snapshot checks.  Ignored by {!compare},
          so diagnostic identity is independent of when it was found. *)
}

let make ?dpid ?table_id ?rule ?witness ~severity ~invariant message =
  { severity; invariant; dpid; table_id; rule; witness; message; first_at = None }

let with_first_at at d = { d with first_at = Some at }

let is_error d = d.severity = Error

let invariant_name = function
  | Loop -> "loop"
  | Blackhole -> "blackhole"
  | Shadow -> "shadow"
  | Group_sanity -> "group-sanity"
  | Coverage -> "coverage"
  | Divergence -> "divergence"

let severity_rank = function (Error : severity) -> 0 | Warning -> 1

let invariant_rank = function
  | Loop -> 0
  | Blackhole -> 1
  | Group_sanity -> 2
  | Coverage -> 3
  | Divergence -> 4
  | Shadow -> 5

let pp_subject fmt = function
  | Rule { priority; match_ } ->
    Format.fprintf fmt "prio %d %a" priority Scotch_openflow.Of_match.pp match_
  | Group g -> Format.fprintf fmt "group %d" g

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else begin
    let c = Stdlib.compare (invariant_rank a.invariant) (invariant_rank b.invariant) in
    if c <> 0 then c
    else
      Stdlib.compare
        (a.dpid, a.table_id, a.message, a.rule, a.witness)
        (b.dpid, b.table_id, b.message, b.rule, b.witness)
  end

let normalize ds = List.sort_uniq compare ds

let errors ds = List.filter is_error ds

let pp fmt d =
  Format.fprintf fmt "[%s] %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    (invariant_name d.invariant);
  (match d.dpid with Some dpid -> Format.fprintf fmt " at dpid %d" dpid | None -> ());
  (match d.table_id with Some tid -> Format.fprintf fmt " table %d" tid | None -> ());
  Format.fprintf fmt ": %s" d.message;
  (match d.rule with Some r -> Format.fprintf fmt " (rule %a)" pp_subject r | None -> ());
  (match d.witness with Some w -> Format.fprintf fmt " [witness: %s]" w | None -> ());
  match d.first_at with Some at -> Format.fprintf fmt " [first at t=%.3f]" at | None -> ()

let to_string d = Format.asprintf "%a" pp d
