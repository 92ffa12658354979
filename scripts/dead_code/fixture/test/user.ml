(* Uses of the fixture's library, from outside it, by a test. *)

(* A manifest re-export: its fields are the library's fields. *)
type t = Dead_code_fixture.Counter.t = {
  mutable bumped : int;
  built : int;
  copied : int;
  matched : int;
  dotted : int;
  aliased : int;
}

(* Typed as the re-export, [r.aliased] names the re-export's field. *)
let aliased (r : t) = r.aliased

(* Unrelated to [Exports.canary]: a text match would take it for a use. *)
let canary () = ()

module X = Dead_code_fixture.Exports
module Make (M : sig val whole : int end) = struct let v = M.whole end
module Made = Make (Dead_code_fixture.Exports.Passed)
module O = Dead_code_fixture.Options

let () =
  let c = Dead_code_fixture.Counter.make () in
  Dead_code_fixture.Counter.bump c;
  let copy = { c with built = 7 } in
  let { matched; _ } = copy in
  Printf.printf "%d %d %d\n" matched (Dead_code_fixture.Counter.dotted c) (aliased c);
  canary ();
  Printf.printf "%d %d %d\n" Dead_code_fixture.Exports.qualified X.via_alias Made.v;
  print_int (O.tested ~x:1 ())
