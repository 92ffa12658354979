(** Token-bucket rate limiter, used to model finite-rate servers (e.g. an
    OFA that can emit at most [rate] Packet-In messages per second with a
    small burst allowance). *)

type t = {
  rate : float;           (* tokens per second *)
  burst : float;          (* bucket depth *)
  mutable tokens : float;
  mutable last : float;   (* last refill time *)
}

(** [create ~rate ~burst] starts full at time 0. *)
let create ~rate ~burst =
  if rate <= 0.0 then invalid_arg "Token_bucket.create: rate must be positive";
  if burst <= 0.0 then invalid_arg "Token_bucket.create: burst must be positive";
  { rate; burst; tokens = burst; last = 0.0 }

(* The comparison is on floats, not the polymorphic [min], so a refill
   boxes nothing. *)
let refill t ~now =
  if now > t.last then begin
    let tokens = t.tokens +. ((now -. t.last) *. t.rate) in
    t.tokens <- (if t.burst <= tokens then t.burst else tokens);
    t.last <- now
  end

(** [take t ~now] consumes one token if available, returning whether the
    event is admitted. *)
let take t ~now =
  refill t ~now;
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    true
  end
  else false
