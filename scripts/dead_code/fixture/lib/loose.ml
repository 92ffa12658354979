(* A unit with no .mli: every top-level value must be referenced. *)

let referenced = 1  (* referenced below, in its own unit: clear *)
let unreferenced : int = referenced + 1  (* referenced nowhere: flagged *)
