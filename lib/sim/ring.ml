(** A growable FIFO ring buffer whose empty slots hold a placeholder.
    The capacity is zero or a power of two, so an index wraps by a
    mask. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  placeholder : 'a;
}

let create placeholder = { buf = [||]; head = 0; len = 0; placeholder }

let length t = t.len

(* Double the buffer (at least 8 slots), unwrapping it to start at 0. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 8 (2 * cap)) t.placeholder in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  Array.unsafe_set t.buf ((t.head + t.len) land (Array.length t.buf - 1)) x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = Array.unsafe_get t.buf t.head in
  Array.unsafe_set t.buf t.head t.placeholder;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of bounds";
  Array.unsafe_get t.buf ((t.head + i) land (Array.length t.buf - 1))

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Ring.truncate: bad length";
  for i = n to t.len - 1 do
    Array.unsafe_set t.buf ((t.head + i) land (Array.length t.buf - 1)) t.placeholder
  done;
  t.len <- n
