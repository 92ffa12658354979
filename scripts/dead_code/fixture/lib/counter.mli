(* The field rule's fixture: one record, one field per case.  The
   user module is ../test/user.ml; ../../fixture.expected lists what the
   gate must flag. *)

type t = {
  mutable bumped : int;  (* only updated by [c.bumped <- c.bumped + 1]: flagged *)
  built : int;  (* only constructed: flagged *)
  copied : int;  (* only carried over by [{ r with ... }]: flagged *)
  matched : int;  (* read by a record pattern: clear *)
  dotted : int;  (* read by [.dotted], here in the .ml: clear *)
  aliased : int;  (* read only through the user's re-export: clear *)
}

val make : unit -> t
val bump : t -> unit
val dotted : t -> int
