(* The export rule's fixture.  The user is ../test/user.ml;
   ../../fixture.expected lists what the gate must flag. *)

val canary : int  (* used only in exports.ml; user.ml defines its own [canary]: flagged *)
val qualified : int  (* used once as [Dead_code_fixture.Exports.qualified]: clear *)
val via_alias : int  (* used only through [module X = Dead_code_fixture.Exports]: clear *)

module Passed : sig
  val whole : int  (* named nowhere, but its module is passed whole to a functor: clear *)
end
