(** Iterative monotonic-action instruction aggregation (paper §4.3).

    The search keeps parallelism intact by only executing {e monotonic}
    actions: merges that cannot lengthen the critical path even under a
    pessimistic (serial, unoptimized) latency for the new block. Each
    round performs the globally best action (largest predicted pulse-time
    gain), updates the GDG, and repeats; when no action remains, every
    aggregate is re-costed by the cost model (the optimal control query),
    which shortens blocks and may unlock further monotonic actions — the
    outer loop iterates to convergence.

    Slack-based monotonicity: with ASAP starts and ALAP deadlines kept
    current, the merged block (placed at the earlier member's
    start, delayed by the later member's other-qubit predecessors) must
    still meet every successor's latest start and the overall makespan.
    [pessimism] selects the duration used in that check: [`Serial] (the
    paper's rule) assumes the unoptimized serial sum of the two members;
    [`Model] (the default) trusts the cost model's predicted merged time —
    affordable here because the "optimal control query" is an O(1)
    analytic model rather than hours of GRAPE, and necessary for the
    paper's reported serial-application gains, which stall under serial
    pessimism when zero-slack side gates veto growth (see DESIGN.md). *)

type stats = {
  merges : int;
  rounds : int;  (** outer re-costing iterations *)
  initial_makespan : float;
  final_makespan : float;
}

val run :
  ?width_limit:int ->
  ?max_rounds:int ->
  ?pessimism:[ `Serial | `Model ] ->
  cost:(Qgate.Gate.t list -> float) ->
  Qgdg.Gdg.t ->
  stats
(** Aggregates in place. [width_limit] defaults to 10 (the optimal-control
    scalability bound, §2.5); [max_rounds] to 8. [cost] maps a member-gate
    block to its optimized pulse time.

    The search is incremental: after each accepted merge the
    {!Qgdg.Sched_view} patches chain links, ASAP times and tail lengths
    (ALAP start = makespan − tail) around the merge, commutation groups
    are resynced in a window of the merged support's chains, and the
    candidate universe is invalidated only for pairs whose endpoints act
    on those chains. The cycle check inside {!Qgdg.Gdg.merge} runs as a
    bounded reachability probe using the ASAP starts as ranks. The
    accepted-merge sequence is identical to {!run_reference}'s. With an
    enabled ambient metrics registry the pass records
    [agg.phase.{groups,slack,universe,score}.ms]. *)

val run_reference :
  ?width_limit:int ->
  ?max_rounds:int ->
  ?pessimism:[ `Serial | `Model ] ->
  cost:(Qgate.Gate.t list -> float) ->
  Qgdg.Gdg.t ->
  stats
(** The pre-incremental aggregator, retained as an executable
    specification: full slack recomputation after every merge, full group
    rebuild and candidate re-enumeration per sweep. Same accepted merges,
    same final schedule, asymptotically slower — used by the equivalence
    tests and as the baseline for performance comparisons. *)
