(* The per-flow rules' instruction values, one per output port per run;
   see port_actions.mli.

   Layout: the {!Scotch_util.Open_index} the Flow Info Database uses,
   one entry per port in first-use order, indexed on a hash of the
   port.  Entries are never removed.  A lookup walks the candidate
   slots by direct recursion, so a hit allocates nothing. *)

open Scotch_openflow
module Ix = Scotch_util.Open_index

type shapes = {
  port : int;
  out : Of_action.t list;
  out_instructions : Of_action.instructions;
  pop : Of_action.t list;
  pop_instructions : Of_action.instructions;
}

type t = (unit, shapes) Ix.t

let vacant =
  { port = -1; out = []; out_instructions = []; pop = []; pop_instructions = [] }

let hash_port port = Ix.finish (Ix.mix Ix.seed port)

let create () = Ix.create ~tag:() ~vacant ~hash:(fun () s -> hash_port s.port)

let build port =
  let out = [ Of_action.Output (Of_types.Port_no.Physical port) ] in
  let pop = Of_action.Pop_mpls :: out in
  { port; out; out_instructions = [ Of_action.Apply_actions out ]; pop;
    pop_instructions = [ Of_action.Apply_actions pop ] }

let rec find_from t port h s =
  if s < 0 then begin
    let x = build port in
    Ix.append t x;
    x
  end
  else
    let x = t.Ix.entries.(Ix.position t s) in
    if x.port = port then x else find_from t port h (Ix.probe_next t h s)

let find t port =
  let h = hash_port port in
  find_from t port h (Ix.probe t h)
