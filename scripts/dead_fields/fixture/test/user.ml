(* Uses of the fixture's record, from outside its library. *)

(* A manifest re-export: its fields are the library's fields. *)
type t = Dead_fields_fixture.Counter.t = {
  mutable bumped : int;
  built : int;
  copied : int;
  matched : int;
  dotted : int;
  aliased : int;
}

(* Typed as the re-export, [r.aliased] names the re-export's field. *)
let aliased (r : t) = r.aliased

let () =
  let c = Dead_fields_fixture.Counter.make () in
  Dead_fields_fixture.Counter.bump c;
  let copy = { c with built = 7 } in
  let { matched; _ } = copy in
  Printf.printf "%d %d %d\n" matched (Dead_fields_fixture.Counter.dotted c) (aliased c)
