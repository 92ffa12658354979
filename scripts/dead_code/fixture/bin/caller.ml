(* Applications of the optional-argument fixture from program code. *)

module O = Dead_code_fixture.Options

let forward ?x () = O.forwarded ?x ()

type holder = { f : ?x:int -> unit -> int }

let holder = { f = O.stored }
let partial = O.partial ~a:1

let () =
  Printf.printf "%d %d %d %d\n" (O.never ()) (O.tilde ~x:1 ()) (forward ()) (holder.f ~x:2 ());
  print_int (partial ~x:3 ())
