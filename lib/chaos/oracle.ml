(** The end-to-end safety oracles: one typed definition of "the
    control plane recovered".

    The runner distills a finished trial into an {!observation} —
    plain data, no live simulator handles — and [check] judges it.
    Scripted experiments (the resilience smoke) and searched trials
    (the chaos engine) both go through this module, so there is
    exactly one definition of healthy in the tree.

    Oracles, in severity order:
    - {!Verify_clean}: the post-recovery dataplane passes the PR 2/7
      invariant checker — no loops, blackholes, shadowing, group
      insanity or miss-coverage holes.
    - {!Reconcile_converged}: with the reliable layer on, intent and
      device state agree (no stranded intents, no resurrected rules)
      and nothing is still outstanding.
    - {!Bounded_loss}: admitted-flow delivery beats a floor that
      scales with the schedule's severity-weighted fault {!exposure} —
      faults may cost flows, but only in proportion to what was
      injected.
    - {!Breaker_liveness}: no pool member is still ejected (breaker
      [Open]/[Half_open]) once its fault has cleared and the settle
      window has passed — every ejection ends in readmission or an
      explicit demotion.
    - {!Tenant_isolation}: with tenancy on, the victim tenant sheds
      nothing — every shed flow belongs to the tenant that earned it.
    - {!Determinism}: the same schedule run twice produces
      bit-identical digests. *)

open Scotch_faults

type reconcile_obs = {
  converged : bool;
  outstanding : int; (* intent operations still in flight at run end *)
}

type breaker_obs = {
  dpid : int;
  state : string; (* "closed" | "open" | "half-open" | "none" *)
  demoted : bool; (* on the bench (backup) at run end: allowed to stay ejected *)
}

type observation = {
  launched : int;  (* admitted background flows *)
  delivered : int; (* of those, delivered end-to-end *)
  verify_errors : int;
  reconcile : reconcile_obs option;
  breakers : breaker_obs list;
  victim_sheds : int option; (* tenancy on: sheds charged to the victim *)
  digest : string; (* bit-identity fingerprint of the whole run *)
}

type oracle =
  | Verify_clean
  | Reconcile_converged
  | Bounded_loss
  | Breaker_liveness
  | Tenant_isolation
  | Determinism

type violation = { oracle : oracle; detail : string }

let oracle_name = function
  | Verify_clean -> "verify-clean"
  | Reconcile_converged -> "reconcile-converged"
  | Bounded_loss -> "bounded-loss"
  | Breaker_liveness -> "breaker-liveness"
  | Tenant_isolation -> "tenant-isolation"
  | Determinism -> "determinism"

let oracle_of_name = function
  | "verify-clean" -> Some Verify_clean
  | "reconcile-converged" -> Some Reconcile_converged
  | "bounded-loss" -> Some Bounded_loss
  | "breaker-liveness" -> Some Breaker_liveness
  | "tenant-isolation" -> Some Tenant_isolation
  | "determinism" -> Some Determinism
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Exposure: how much failure a schedule injects, in loss-allowance
   units.  Per-kind severity weights scale each fault's share of the
   workload window; a vswitch crash additionally pays the fixed
   heartbeat-detection + rebalance window during which traffic is
   still hashed onto the corpse. *)

(** Simulation seconds between a crash and the last select group
    forgetting the corpse (heartbeat timeout + period + propagation) —
    the §5.6 budget the resilience tests assert. *)
let crash_recovery_window = 5.0

(* Calibration: a weight of w means "this fault may cost up to
   [exposure_loss * w] of the flows admitted during its window".  A
   full outage with no redundant path — an OFA stall or controller
   pause freezing flow setup on a physical switch every flow crosses —
   loses flows at the flash-crowd density (~2x the average admission
   rate), hence weights around 2.  A vswitch crash is cheap per second
   (the pool is redundant; only detection-window flows hashed to the
   corpse are lost) but pays the fixed {!crash_recovery_window}, so
   its weight stays low — low enough that a rebalance that never
   happens (losing the corpse's whole traffic share to the end of the
   run) still lands far above the allowance. *)
let kind_weight = function
  | Fault.Vswitch_crash -> 0.35
  | Fault.Ofa_stall -> 2.0
  | Fault.Link_down _ -> 1.5
  | Fault.Ofa_slowdown _ -> 0.6
  | Fault.Vswitch_degrade _ -> 0.6
  | Fault.Channel_drop _ -> 0.8
  | Fault.Channel_delay _ -> 0.2
  | Fault.Channel_dup _ -> 0.1
  | Fault.Channel_reorder _ -> 0.15
  | Fault.Controller_pause -> 2.0
  | Fault.Stats_outage -> 0.0
  | Fault.Tenant_flood _ -> 0.3

let exposure (s : Schedule.t) =
  let d = s.Schedule.workload.Schedule.duration in
  List.fold_left
    (fun acc (f : Fault.t) ->
      let window =
        match f.Fault.kind with
        | Fault.Vswitch_crash -> f.Fault.duration +. crash_recovery_window
        | _ -> f.Fault.duration
      in
      acc +. (kind_weight f.Fault.kind *. (Float.min window d /. d)))
    0.0 s.Schedule.faults

(** The delivery floor a trial must beat: loss up to
    [base + exposure_loss * exposure], capped at [max_loss]. *)
let allowed_loss (tol : Schedule.tolerance) ~exposure =
  Float.min tol.Schedule.max_loss
    (tol.Schedule.base_loss +. (tol.Schedule.exposure_loss *. exposure))

(* ------------------------------------------------------------------ *)

let v oracle fmt = Printf.ksprintf (fun detail -> { oracle; detail }) fmt

let check (s : Schedule.t) (o : observation) =
  let violations = ref [] in
  let push x = violations := x :: !violations in
  if o.verify_errors > 0 then
    push
      (v Verify_clean "%d invariant error(s) in the post-recovery dataplane"
         o.verify_errors);
  (match o.reconcile with
  | Some r when (not r.converged) || r.outstanding > 0 ->
    push
      (v Reconcile_converged "converged=%b with %d outstanding operation(s)" r.converged
         r.outstanding)
  | _ -> ());
  let exposure = exposure s in
  let allowed = allowed_loss s.Schedule.cfg.Schedule.tolerance ~exposure in
  if o.launched > 0 then begin
    let lost = float_of_int (o.launched - o.delivered) /. float_of_int o.launched in
    if lost > allowed then
      push
        (v Bounded_loss "lost %.1f%% of %d admitted flows (allowed %.1f%% at exposure %.2f)"
           (100.0 *. lost) o.launched (100.0 *. allowed) exposure)
  end;
  List.iter
    (fun b ->
      if b.state <> "closed" && b.state <> "none" && not b.demoted then
        push
          (v Breaker_liveness "member %d still %s at run end (never readmitted or demoted)"
             b.dpid b.state))
    o.breakers;
  (match o.victim_sheds with
  | Some n when n > 0 -> push (v Tenant_isolation "%d victim flow(s) shed" n)
  | _ -> ());
  List.rev !violations

(** Same-seed determinism: two runs of one schedule must agree
    bit-for-bit. *)
let check_determinism ~(first : observation) ~(second : observation) =
  if first.digest = second.digest then None
  else
    let short s = if String.length s > 12 then String.sub s 0 12 else s in
    Some
      (v Determinism "same schedule, different digests (%s vs %s)" (short first.digest)
         (short second.digest))

let pp_violation fmt { oracle; detail } =
  Format.fprintf fmt "%s: %s" (oracle_name oracle) detail
