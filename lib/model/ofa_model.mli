(** Closed-form queueing model of a single OFA (the "single node case"
    of the OpenFlow modeling literature): one server at rate [mu], a
    finite waiting room of [capacity] jobs, Poisson Packet-In arrivals
    at rate [lambda].

    The OFA's serve loop ({!Scotch_switch.Ofa}) draws service times
    with ±5 % uniform jitter around the profile's per-message service
    time — squared coefficient of variation ≈ 8×10⁻⁴, i.e. effectively
    deterministic — so the defensible steady-state abstraction is
    M/D/1/K, not M/M/1/K (whose queue predictions overshoot by ~80 % at
    ρ = 0.9 against a near-deterministic server).  {!evaluate} solves
    the embedded Markov chain of the general M/G/1/K system exactly for
    either service law; [Exponential] exists as a differential check
    against the textbook {!mm1k} closed form.

    The model is a validation oracle: {!evaluate}'s steady-state
    predictions (queue length, sojourn, blocking) are what
    [Model_check] compares the simulated OFA against. *)

(** Service-time law of the single server. *)
type service =
  | Deterministic  (** fixed [1/mu] per job — the OFA's actual behaviour *)
  | Exponential    (** memoryless at rate [mu] — M/M/1/K, for cross-checks *)

type params = {
  rate : float;          (** λ: offered Packet-In arrival rate, jobs/s (≥ 0) *)
  service_rate : float;  (** μ: service rate, jobs/s (> 0) *)
  capacity : int;        (** K: waiting-room slots, excluding the job in
                             service — maps to [Profile.pin_queue_capacity] (≥ 1) *)
}

(** Raises [Invalid_argument] on a non-finite or negative rate, a
    non-positive service rate, or a capacity below 1. *)
val check_params : params -> unit

type prediction = {
  utilization : float;  (** P(server busy) = 1 − p₀ = ρ(1 − blocking) *)
  blocking : float;     (** P(an arrival finds the waiting room full) *)
  throughput : float;   (** admitted-job completion rate λ(1 − blocking) *)
  queue_len : float;    (** Lq: mean jobs {e waiting} (excludes in-service) *)
  system_len : float;   (** L = Lq + utilization *)
  wait : float;         (** Wq: mean wait before service of an {e admitted} job, s *)
  sojourn : float;      (** W = Wq + 1/μ: mean admit-to-completion time, s *)
}

(** Exact steady state of the M/G/1/K queue under [service] (default
    [Deterministic]), via the embedded Markov chain at departure
    epochs.  O(K²).  Raises like {!check_params}. *)
val evaluate : ?service:service -> params -> prediction

(** Textbook closed-form M/M/1/K solution — the differential oracle
    for [evaluate ~service:Exponential]. *)
val mm1k : params -> prediction
