(** Exact steady state of the M/G/1/K queue via its embedded Markov
    chain.

    Notation: λ = offered rate, μ = service rate, ρ = λ/μ, K = waiting
    room, N = K + 1 = most jobs the system holds counting the one in
    service.

    The chain is embedded at departure epochs over occupancies 0..N−1
    (a departing job cannot leave a full system behind).  With aⱼ =
    P(j Poisson arrivals during one service time), the stationary
    vector π of the embedded chain satisfies the forward recursion

      π₍ⱼ₊₁₎ a₀ = πⱼ − π₀ aⱼ − Σᵢ₌₁..ⱼ πᵢ a₍ⱼ₊₁₋ᵢ₎

    solved unnormalized from π₀ = 1, then normalized.  The standard
    finite-buffer identity (Tijms) lifts departure-epoch probabilities
    to time-stationary ones:

      pⱼ = π̂ⱼ / (π̂₀ + ρ)  for j ≤ N−1,   p_N = 1 − 1/(π̂₀ + ρ)

    which by construction satisfies the rate balance
    λ(1 − p_N) = μ(1 − p₀); PASTA makes p_N the blocking probability.
    The test suite pins this against the closed-form M/M/1/K under the
    [Exponential] law rather than trusting the algebra silently. *)

type service = Deterministic | Exponential

type params = {
  rate : float;
  service_rate : float;
  capacity : int;
}

let check_params p =
  if not (Float.is_finite p.rate) || p.rate < 0.0 then
    invalid_arg "Ofa_model: arrival rate must be finite and >= 0";
  if not (Float.is_finite p.service_rate) || p.service_rate <= 0.0 then
    invalid_arg "Ofa_model: service_rate must be finite and positive";
  if p.capacity < 1 then invalid_arg "Ofa_model: capacity must be >= 1"

type prediction = {
  utilization : float;
  blocking : float;
  throughput : float;
  queue_len : float;
  system_len : float;
  wait : float;
  sojourn : float;
}

let idle p =
  { utilization = 0.0; blocking = 0.0; throughput = 0.0;
    queue_len = 0.0; system_len = 0.0; wait = 0.0; sojourn = 1.0 /. p.service_rate }

(* aⱼ = P(j arrivals during one service), for j = 0..n−1.
   Deterministic service D = 1/μ: Poisson(λD) — the M/D/1/K law.
   Exponential service: geometric, aⱼ = (μ/(λ+μ)) (λ/(λ+μ))ʲ. *)
let arrival_law service ~rho n =
  let a = Array.make n 0.0 in
  (match service with
  | Deterministic ->
    a.(0) <- exp (-.rho);
    for j = 1 to n - 1 do
      a.(j) <- a.(j - 1) *. rho /. float_of_int j
    done
  | Exponential ->
    let q = rho /. (1.0 +. rho) in
    a.(0) <- 1.0 /. (1.0 +. rho);
    for j = 1 to n - 1 do
      a.(j) <- a.(j - 1) *. q
    done);
  a

(* Derived metrics from the time-stationary distribution p.(0..n) over
   system occupancy (n = K + 1 = max jobs in system). *)
let of_distribution prm p =
  let n = Array.length p - 1 in
  let blocking = p.(n) in
  let utilization = 1.0 -. p.(0) in
  let l = ref 0.0 in
  for j = 1 to n do
    l := !l +. (float_of_int j *. p.(j))
  done;
  let system_len = !l in
  let queue_len = Float.max 0.0 (system_len -. utilization) in
  let throughput = prm.rate *. (1.0 -. blocking) in
  let sojourn = if throughput > 0.0 then system_len /. throughput else 0.0 in
  let wait = Float.max 0.0 (sojourn -. (1.0 /. prm.service_rate)) in
  { utilization; blocking; throughput; queue_len; system_len; wait; sojourn }

(* ρ → ∞ limit: the system pins full and the server never idles, so
   every metric follows from throughput = μ.  Also the numeric escape
   hatch for the Deterministic law once exp(−ρ) underflows (the a₀
   division would produce NaN). *)
let saturated prm =
  let rho = prm.rate /. prm.service_rate in
  let nf = float_of_int (prm.capacity + 1) in
  (* the server never idles, so departures happen at rate μ and each
     leaves N−1 jobs behind for an Exp(λ) gap: the system spends 1/ρ of
     its time one below full, independent of the service law, giving
     L = N − 1/ρ + O(1/ρ²) *)
  let l = nf -. (1.0 /. rho) in
  { utilization = 1.0; blocking = 1.0 -. (1.0 /. rho);
    throughput = prm.service_rate; queue_len = l -. 1.0; system_len = l;
    wait = (l -. 1.0) /. prm.service_rate; sojourn = l /. prm.service_rate }

let evaluate ?(service = Deterministic) prm =
  check_params prm;
  if prm.rate = 0.0 then idle prm
  else if prm.rate /. prm.service_rate > 200.0 then saturated prm
  else begin
    let rho = prm.rate /. prm.service_rate in
    let n = prm.capacity + 1 in
    (* embedded chain over occupancies 0..n−1 *)
    let a = arrival_law service ~rho n in
    let pi = Array.make n 0.0 in
    pi.(0) <- 1.0;
    for j = 0 to n - 2 do
      let s = ref (pi.(j) -. (pi.(0) *. a.(j))) in
      for i = 1 to j do
        s := !s -. (pi.(i) *. a.(j + 1 - i))
      done;
      pi.(j + 1) <- Float.max 0.0 (!s /. a.(0));
      (* rescale before the geometric growth can overflow: one step
         multiplies by at most 1/a₀ ≤ e^200 ≈ 7e86 (the ρ > 200 regime
         takes the closed form instead), so anything under 1e150 stays
         finite through the next division; only ratios of π survive
         into p *)
      if pi.(j + 1) > 1e150 then begin
        let m = pi.(j + 1) in
        for i = 0 to j + 1 do
          pi.(i) <- pi.(i) /. m
        done
      end
    done;
    let sum = Array.fold_left ( +. ) 0.0 pi in
    let pihat = Array.map (fun x -> x /. sum) pi in
    (* Tijms' identity, departure epochs → time average (see header) *)
    let denom = pihat.(0) +. rho in
    let p = Array.make (n + 1) 0.0 in
    for j = 0 to n - 1 do
      p.(j) <- pihat.(j) /. denom
    done;
    p.(n) <- Float.max 0.0 (1.0 -. (1.0 /. denom));
    of_distribution prm p
  end

let mm1k prm =
  check_params prm;
  if prm.rate = 0.0 then idle prm
  else begin
    let rho = prm.rate /. prm.service_rate in
    let n = prm.capacity + 1 in
    (* pⱼ = ρʲ(1−ρ)/(1−ρ^{N+1}), with the ρ = 1 limit uniform *)
    let p = Array.make (n + 1) 0.0 in
    if Float.abs (rho -. 1.0) < 1e-9 then
      Array.fill p 0 (n + 1) (1.0 /. float_of_int (n + 1))
    else begin
      (* accumulate ρʲ anchored at whichever end dominates (ρ ≶ 1), so
         the running weights shrink toward the other end and underflow
         harmlessly instead of overflowing *)
      let w = Array.make (n + 1) 0.0 in
      if rho < 1.0 then begin
        w.(0) <- 1.0;
        for j = 1 to n do
          w.(j) <- w.(j - 1) *. rho
        done
      end
      else begin
        w.(n) <- 1.0;
        for j = n - 1 downto 0 do
          w.(j) <- w.(j + 1) /. rho
        done
      end;
      let sum = Array.fold_left ( +. ) 0.0 w in
      for j = 0 to n do
        p.(j) <- w.(j) /. sum
      done
    end;
    of_distribution prm p
  end
