(* A dense store with an open-addressed hash index; see open_index.mli.

   Layout: [entries.(0 .. used - 1)] in insertion order, a removed entry
   replaced by the shared [vacant] sentinel (compared with [==]).
   [index] has [index_size (Array.length entries)] slots, each [-1] or
   [hash lsl pos_bits lor position], so each held position has a slot
   and the index is at most half full.  Placement is Robin Hood: an
   entry nearer its own home slot gives up its slot to one further
   from home, which bounds how far a probe runs and lets a probe stop
   at the first entry nearer its home than the hash it seeks would be.
   A vacated position keeps its slot until a repack. *)

type ('k, 'a) t = {
  tag : 'k;
  vacant : 'a;
  hash : 'k -> 'a -> int;
  mutable entries : 'a array;
  mutable used : int;
  mutable live : int;
  mutable index : int array;
}

let pos_bits = 30
let pos_mask = (1 lsl pos_bits) - 1

(* Slots for an array of [capacity] entries. *)
let index_size capacity = (2 * capacity) + 1

let create ~tag ~vacant ~hash =
  { tag; vacant; hash; entries = [||]; used = 0; live = 0; index = Array.make (index_size 0) (-1) }

(* ------------------------------------------------------------------ *)
(* Hashing ints *)

let seed = 0x2545F4914F6CDD1D

let mix h v =
  let h = (h lxor v) * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

let finish h =
  let h = (h lxor (h lsr 32)) * 0x3F58476D1CE4E5B9 in
  (h lxor (h lsr 29)) land 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* The index *)

(* The slot a hash [h] belongs in, in an index of [size] slots. *)
let home h size = (h * size) lsr 32

let next size s = if s + 1 = size then 0 else s + 1

(* How far slot [s] is past hash [h]'s home slot. *)
let distance size h s =
  let d = s - home h size in
  if d < 0 then d + size else d

(* How far slot [s] is past the home slot of the entry [e] it holds. *)
let displacement size e s = distance size (e lsr pos_bits) s

(* Robin Hood placement of [e], [d] slots past its home, from slot [s]:
   an entry nearer its own home gives up its slot and moves on. *)
let rec place index e s d =
  let here = index.(s) in
  let size = Array.length index in
  if here < 0 then index.(s) <- e
  else
    let dh = displacement size here s in
    if dh < d then begin
      index.(s) <- e;
      place index here (next size s) (dh + 1)
    end
    else place index e (next size s) (d + 1)

let add_entry t h pos =
  let size = Array.length t.index in
  place t.index ((h lsl pos_bits) lor pos) (home h size) 0

(* The first slot from [s], [d] slots past [h]'s home, whose entry has
   hash [h]; -1 once an empty slot, or an entry nearer its own home
   than [h] would be, shows there is none further on. *)
let rec candidate index h s d =
  let e = index.(s) in
  let size = Array.length index in
  if e < 0 then -1
  else if e lsr pos_bits = h then s
  else if displacement size e s < d then -1
  else candidate index h (next size s) (d + 1)

let probe t h =
  let index = t.index in
  candidate index h (home h (Array.length index)) 0

let probe_next t h s =
  let index = t.index in
  let size = Array.length index in
  let s = next size s in
  candidate index h s (distance size h s)

let position t s = t.index.(s) land pos_mask

(* ------------------------------------------------------------------ *)
(* Storage *)

(* Rebuild [t] with room for [capacity] entries, its live ones moved to
   the front in insertion order and indexed afresh; arrays of the right
   size are reused. *)
let repack t capacity =
  let old = t.entries and vacant = t.vacant in
  let entries = if Array.length old = capacity then old else Array.make capacity vacant in
  let n = ref 0 in
  for i = 0 to t.used - 1 do
    let x = old.(i) in
    if x != vacant then begin
      entries.(!n) <- x;
      incr n
    end
  done;
  if entries == old then Array.fill entries !n (t.used - !n) vacant;
  let size = index_size capacity in
  let index =
    if Array.length t.index = size then begin
      Array.fill t.index 0 size (-1);
      t.index
    end
    else Array.make size (-1)
  in
  t.entries <- entries;
  t.used <- !n;
  t.index <- index;
  for pos = 0 to !n - 1 do
    add_entry t (t.hash t.tag entries.(pos)) pos
  done

let reserve = repack

(* Keep the capacity unless that leaves under an eighth of the live
   count free or is over twice [roomy]: room for a quarter as many
   again. *)
let tidy t =
  let live = t.live and capacity = Array.length t.entries in
  let roomy = live + (live / 4) + 4 in
  repack t (if capacity < live + (live / 8) + 4 || capacity > 2 * roomy then roomy else capacity)

let append t x =
  if t.used = Array.length t.entries then tidy t;
  let pos = t.used in
  t.entries.(pos) <- x;
  t.used <- pos + 1;
  t.live <- t.live + 1;
  add_entry t (t.hash t.tag x) pos

let vacate t pos =
  t.entries.(pos) <- t.vacant;
  t.live <- t.live - 1

let tidy_if_sparse t = if t.used - t.live > t.live then tidy t

let longest_probe t =
  let size = Array.length t.index in
  let longest = ref 0 in
  Array.iteri
    (fun s e ->
      if e >= 0 && t.entries.(e land pos_mask) != t.vacant then
        longest := max !longest (displacement size e s + 1))
    t.index;
  !longest
