(* Minor-heap words a call allocates, for the tests that pin
   allocation.  A before/after reading of [Gc.minor_words] can also
   count the measurement's own boxed float, so [words] subtracts what
   the same measurement of an empty call reads: a call that allocates
   nothing reads exactly 0. *)

let[@inline never] raw f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words f = raw f -. raw ignore

(* The words of [n] calls of [f], per call. *)
let per_call n f =
  words (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int n
