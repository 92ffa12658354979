type t = {
  mutable bumped : int;
  built : int;
  copied : int;
  matched : int;
  dotted : int;
  aliased : int;
}

let make () = { bumped = 0; built = 1; copied = 2; matched = 3; dotted = 4; aliased = 5 }
let bump c = c.bumped <- c.bumped + 1
let dotted c = c.dotted
