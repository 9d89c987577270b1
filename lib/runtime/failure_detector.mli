(** Heartbeat-based failure detection for the daemon's worker pool
    ({!Supervisor}, one detector per slot).

    Each worker process writes a heartbeat frame every
    [expected_interval] seconds; the coordinator feeds arrival times to a
    per-peer detector and polls a {e suspicion level} — a simplified
    phi-accrual detector (Hayashibara et al.): the level is the time
    since the last heartbeat divided by a smoothed estimate of the
    arrival interval. A healthy peer hovers near 1; a stalled or dead
    peer's level grows without bound, and once it crosses phi = 8 the
    peer is {e suspected}. The supervisor treats a suspected worker as
    lost (fail-stop): it kills the worker, requeues its request and
    respawns its slot, so even a falsely-suspected straggler never
    replies.

    The detector never reads the clock itself: every call takes [now],
    so tests drive it with a simulated clock and the suspicion timeline
    is fully deterministic. *)

type t

val create : expected_interval:float -> t
(** [expected_interval] is the nominal heartbeat period (seconds). The
    interval estimate starts there and is EWMA-smoothed (factor 0.8
    toward history) over observed arrivals, floored at
    [expected_interval /. 4.] so a burst of rapid heartbeats cannot
    collapse the estimate and hair-trigger the detector. Raises
    [Invalid_argument] if [expected_interval <= 0.]. *)

val observe : t -> now:float -> unit
(** Record a heartbeat (or any proof of life — task results count)
    arriving at [now]. Non-monotone [now] is clamped: an arrival earlier
    than the previous one is treated as simultaneous with it. *)

val suspicion : t -> now:float -> float
(** [elapsed-since-last-heard / smoothed-interval]. Before the first
    {!observe} the reference point is the creation of the detector by
    {!start}; if {!start} was never called, 0. *)

val start : t -> now:float -> unit
(** Set the grace-period reference point: a freshly spawned worker that
    never says hello is suspected 8 × [expected_interval] seconds after
    [start], not never. Does not count as an arrival for the
    interval estimate. *)

val suspected : t -> now:float -> bool
(** [suspicion t ~now >= 8]. *)
