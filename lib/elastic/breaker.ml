(** Per-vswitch circuit breaker with hysteresis.

    A pure state machine — no engine, no I/O — fed health probes by
    {!Elastic}.  Each probe outcome becomes a sample in [0,1] (1 =
    perfectly healthy) folded into an EWMA health score:

    - [Closed] (member serving normally): score below [eject_below]
      opens the breaker — the member is quarantined.
    - [Open] (quarantined): after [half_open_after] seconds the next
      probe moves to half-open trial.
    - [Half_open]: [readmit_probes] consecutive healthy probes {e and}
      a score back above [readmit_above] close the breaker; any
      unhealthy probe snaps back to [Open] and restarts the wait.

    The eject and readmit thresholds differ ([readmit_above] >
    [eject_below]) so a member oscillating around one threshold cannot
    flap the pool — classic Schmitt-trigger hysteresis. *)

(** Weight of the newest sample in the EWMA health score. *)
let ewma_alpha = 0.3

(** Open the breaker when the score sinks below this. *)
let eject_below = 0.3

(** Score required (with the streak) to close again. *)
let readmit_above = 0.7

(** Quarantine time before probing resumes, s. *)
let half_open_after = 2.0

(** Consecutive healthy probes required to close. *)
let readmit_probes = 3

type state = Closed | Open | Half_open

type probe = Reply of float (** round-trip time, s *) | Timeout

type event = Ejected | Readmitted

type t = {
  rtt_budget : float;           (* probe round-trip considered fully healthy, s *)
  mutable state : state;
  mutable score : float;        (* EWMA health, starts optimistic at 1 *)
  mutable opened_at : float;    (* when the breaker last opened *)
  mutable healthy_streak : int; (* consecutive healthy probes in half-open *)
}

let create ?(rtt_budget = 0.02) () =
  if not (rtt_budget > 0.0) then invalid_arg "Breaker: rtt_budget must be positive";
  { rtt_budget; state = Closed; score = 1.0; opened_at = 0.0; healthy_streak = 0 }

let state t = t.state

let score t = t.score

(* Map a probe outcome onto [0,1]: a reply within budget is perfect
   health, one at 2x budget (or a timeout) is zero, linear between. *)
let sample_of t = function
  | Timeout -> 0.0
  | Reply rtt ->
    let b = t.rtt_budget in
    Float.max 0.0 (Float.min 1.0 ((2.0 *. b -. rtt) /. b))

(** [observe t ~now probe] folds one probe outcome in and returns the
    membership change it triggers, if any. *)
let observe t ~now probe =
  let s = sample_of t probe in
  t.score <- (ewma_alpha *. s) +. ((1.0 -. ewma_alpha) *. t.score);
  let healthy = s >= 0.5 in
  match t.state with
  | Closed ->
    if t.score < eject_below then begin
      t.state <- Open;
      t.opened_at <- now;
      t.healthy_streak <- 0;
      Some Ejected
    end
    else None
  | Open ->
    if now -. t.opened_at >= half_open_after then begin
      t.state <- Half_open;
      t.healthy_streak <- (if healthy then 1 else 0);
      None
    end
    else None
  | Half_open ->
    if healthy then begin
      t.healthy_streak <- t.healthy_streak + 1;
      if t.healthy_streak >= readmit_probes && t.score >= readmit_above then begin
        t.state <- Closed;
        t.healthy_streak <- 0;
        Some Readmitted
      end
      else None
    end
    else begin
      (* relapse: back to quarantine, restart the half-open wait *)
      t.state <- Open;
      t.opened_at <- now;
      t.healthy_streak <- 0;
      None
    end
