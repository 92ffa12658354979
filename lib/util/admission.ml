(* Tenant-aware admission shared by the OFA's Packet-In queue and the
   Fig. 7 ingress lanes; see admission.mli. *)

type policy = Drop_new | Drop_oldest | Priority_preserving

type 'a item = { at : float; tenant : int; payload : 'a }

type slot = {
  mutable budget : int; (* max queued slots; max_int = no budget *)
  mutable submitted : int;
  mutable queued : int;
  mutable shed : int;
}

type t = (int, slot) Hashtbl.t

let create () : t = Hashtbl.create 4

(* Find-or-create without allocating on the hit path: every
   submission, enqueue and dequeue looks its tenant up here. *)
let slot (t : t) tenant =
  match Hashtbl.find t tenant with
  | s -> s
  | exception Not_found ->
    let s = { budget = max_int; submitted = 0; queued = 0; shed = 0 } in
    Hashtbl.add t tenant s;
    s

let set_budget t ~tenant b =
  if b < 1 then invalid_arg "Admission.set_budget: budget must be >= 1";
  (slot t tenant).budget <- b

let submitted t ~tenant = (slot t tenant).submitted

let queued t ~tenant = (slot t tenant).queued

let shed t ~tenant = (slot t tenant).shed

let offer t ~tenant =
  let s = slot t tenant in
  s.submitted <- s.submitted + 1;
  s.queued < s.budget

let refuse t ~tenant =
  let s = slot t tenant in
  s.shed <- s.shed + 1

let push t q ~at ~tenant payload =
  Queue.push { at; tenant; payload } q;
  let s = slot t tenant in
  s.queued <- s.queued + 1

(* The item leaves the queue unserved: it no longer holds a slot and
   counts as shed. *)
let drop t item =
  let s = slot t item.tenant in
  s.queued <- s.queued - 1;
  s.shed <- s.shed + 1

let evict_oldest t q ~tenant =
  if Queue.is_empty q then None
  else if (Queue.peek q).tenant = tenant then begin
    let victim = Queue.pop q in
    drop t victim;
    Some victim
  end
  else begin
    let kept = Queue.create () in
    let victim = ref None in
    Queue.iter
      (fun item ->
        if Option.is_none !victim && item.tenant = tenant then victim := Some item
        else Queue.push item kept)
      q;
    Queue.clear q;
    Queue.transfer kept q;
    Option.iter (drop t) !victim;
    !victim
  end

let rec take t q ~now ~deadline ~expire =
  if Queue.is_empty q then None
  else begin
    let item = Queue.pop q in
    if deadline > 0.0 && now -. item.at > deadline then begin
      drop t item;
      expire item;
      take t q ~now ~deadline ~expire
    end
    else begin
      let s = slot t item.tenant in
      s.queued <- s.queued - 1;
      Some item
    end
  end
