(** A dense store with an open-addressed hash index: the one probing
    scheme in the tree, behind each subtable of the rule classifier,
    the controller's Flow Info Database and Scotch's per-port
    instruction values.

    Entries sit in an array in insertion order.  A removed entry becomes
    the store's [vacant] sentinel and stays until a repack, which keeps
    insertion order.  An [int array] index (linear probing, Robin Hood
    placement) maps each entry's 32-bit hash to its position.  The
    store never compares entries: a caller looks an entry up by hashing
    the values it holds, walks the candidate slots of that hash with
    {!probe} and {!probe_next}, and checks each candidate's fields
    itself, so a lookup builds no key and allocates nothing.  A repack
    moves entries, so a position holds only until the next {!append},
    {!tidy}, {!tidy_if_sparse} or {!reserve}. *)

(** [entries.(0 .. used - 1)] in insertion order, [live] of them not
    [vacant]; read, never written, outside this module.  [tag] is what
    [hash] reads besides the entry: a classifier subtable keeps its mask
    shape there. *)
type ('k, 'a) t = private {
  tag : 'k;
  vacant : 'a;
  hash : 'k -> 'a -> int;
  mutable entries : 'a array;
  mutable used : int;
  mutable live : int;
  mutable index : int array;
}

(** An empty store.  [hash tag x] is entry [x]'s hash, in
    [0, 2{^32}); it is called again for every live entry at each
    repack. *)
val create : tag:'k -> vacant:'a -> hash:('k -> 'a -> int) -> ('k, 'a) t

(** {1 Hashing ints} *)

(** The start of a hash over ints. *)
val seed : int

(** [mix h v] folds [v] into the running hash [h]. *)
val mix : int -> int -> int

(** The 32-bit hash of a running hash. *)
val finish : int -> int

(** {1 Storage} *)

(** Store an entry at position [used]. *)
val append : ('k, 'a) t -> 'a -> unit

(** Make the entry at a position [vacant]. *)
val vacate : ('k, 'a) t -> int -> unit

(** Repack once vacated entries outnumber live ones. *)
val tidy_if_sparse : ('k, 'a) t -> unit

(** Repack over the vacated entries, resized to leave room for a
    quarter as many again unless the capacity is already near that. *)
val tidy : ('k, 'a) t -> unit

(** Repack with room for exactly [n] entries; [n] must be at least
    [live]. *)
val reserve : ('k, 'a) t -> int -> unit

(** {1 Probing} *)

(** The first slot holding an entry of hash [h], or -1. *)
val probe : ('k, 'a) t -> int -> int

(** The next slot after [s] holding an entry of hash [h], or -1. *)
val probe_next : ('k, 'a) t -> int -> int -> int

(** The position of the entry slot [s] holds. *)
val position : ('k, 'a) t -> int -> int

(** The most index slots a probe visits to reach a live entry: how well
    the hash spreads the entries. *)
val longest_probe : ('k, 'a) t -> int
