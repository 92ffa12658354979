(** Space-Saving top-k heavy-hitter sketch (Metwally et al.).

    Bounded memory whatever the flow count: at most [capacity] tracked
    keys.  When a new key arrives at a full sketch it evicts the current
    minimum, inheriting its count as the new entry's overestimation
    error — the classic guarantee is [count - err <= true <= count] for
    every tracked key, and any key with true frequency above
    [min_count] is guaranteed to be present.  [capacity] is small (the
    candidate-elephant shortlist), so the eviction scan is a cheap
    linear pass over a dense array. *)

open Scotch_packet

type slot = {
  mutable key : Flow_key.t;
  mutable count : int;
  mutable err : int; (* overestimation inherited from the evicted min *)
  mutable used : bool;
}

type t = {
  capacity : int;
  slots : slot array;
  index : int Flow_key.Hashtbl.t; (* key -> slot number *)
  mutable size : int;
}

type entry = {
  e_key : Flow_key.t;
  e_count : int;
  e_err : int;
}

let dummy_key =
  Flow_key.make ~ip_src:(Ipv4_addr.of_int 0) ~ip_dst:(Ipv4_addr.of_int 0) ~proto:0 ()

let create ~capacity =
  if capacity <= 0 then invalid_arg "Sketch.create: capacity must be positive";
  { capacity;
    slots =
      Array.init capacity (fun _ -> { key = dummy_key; count = 0; err = 0; used = false });
    index = Flow_key.Hashtbl.create (2 * capacity);
    size = 0 }

let clear t =
  Array.iter
    (fun s ->
      s.key <- dummy_key;
      s.count <- 0;
      s.err <- 0;
      s.used <- false)
    t.slots;
  Flow_key.Hashtbl.reset t.index;
  t.size <- 0

(* Slot with the minimum count; deterministic (first minimum wins). *)
let min_slot t =
  let best = ref 0 in
  for i = 1 to t.capacity - 1 do
    if t.slots.(i).count < t.slots.(!best).count then best := i
  done;
  !best

(** [touch t key] counts one occurrence of [key]. *)
let touch t key =
  match Flow_key.Hashtbl.find_opt t.index key with
  | Some i -> t.slots.(i).count <- t.slots.(i).count + 1
  | None ->
    if t.size < t.capacity then begin
      let s = t.slots.(t.size) in
      s.key <- key;
      s.count <- 1;
      s.err <- 0;
      s.used <- true;
      Flow_key.Hashtbl.replace t.index key t.size;
      t.size <- t.size + 1
    end
    else begin
      let i = min_slot t in
      let s = t.slots.(i) in
      Flow_key.Hashtbl.remove t.index s.key;
      Flow_key.Hashtbl.replace t.index key i;
      s.err <- s.count;
      s.count <- s.count + 1;
      s.key <- key
    end

let count t key =
  match Flow_key.Hashtbl.find_opt t.index key with
  | Some i -> Some (t.slots.(i).count, t.slots.(i).err)
  | None -> None

(** Tracked keys, heaviest first (ties broken by key order so the
    listing is deterministic). *)
let entries t =
  let out = ref [] in
  Array.iter
    (fun s -> if s.used then out := { e_key = s.key; e_count = s.count; e_err = s.err } :: !out)
    t.slots;
  List.sort
    (fun a b ->
      match compare b.e_count a.e_count with
      | 0 -> Flow_key.compare a.e_key b.e_key
      | c -> c)
    !out
