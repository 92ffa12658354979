(* The optional-argument rule's fixture, used by ../bin/caller.ml and
   ../test/user.ml. *)

val never : ?x:int -> unit -> int  (* called without x, while [tilde] gets ~x: flagged *)
val tilde : ?x:int -> unit -> int  (* passed ~x once: clear *)
val forwarded : ?x:int -> unit -> int  (* passed only by forwarding ?x: clear *)
val stored : ?x:int -> unit -> int  (* stored in a record field, called through it: clear *)
val partial : ?x:int -> a:int -> unit -> int  (* applied to ~a only, x left open: clear *)
val tested : ?x:int -> unit -> int  (* passed ~x by a test only: flagged *)
