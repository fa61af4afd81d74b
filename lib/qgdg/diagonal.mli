(** Diagonal-unitary detection and contraction (paper §3.3.1, §4.2).

    Searches the GDG for contiguous runs confined to a single qubit pair
    whose composed unitary is diagonal — the CNOT–Rz–CNOT structures of
    QAOA/UCCSD circuits — and contracts each into one instruction. The
    contracted blocks commute with one another, which is what unlocks the
    commutativity-aware scheduler's freedom. Runs are limited to 2 qubits
    (to preserve parallelism) and [max_run_gates] member gates.

    The production path runs on the commutation oracle ({!Oracle}): the
    flat chain tables of a {!Sched_view} replace per-query chain walks, each
    run's prefixes are decided by one incremental phase-polynomial scan
    (digest-memoized per congruence class, attributed to
    [detect.route.*]), merges are validated by bounded reachability
    probes against an incrementally-maintained ASAP rank, and sweeps
    after the first revisit only the neighborhood each contraction
    invalidated. The pre-oracle implementation is retained as
    {!detect_and_contract_reference} and the qcheck suite pins both to
    identical merges and graphs on every suite circuit. *)

val max_run_gates : int
(** 10, the paper's practical bound on exhaustive block search. *)

val detect_and_contract :
  latency:(Qgate.Gate.t list -> float) -> Gdg.t -> int
(** Contract until fixpoint; returns the number of merges performed. The
    GDG is modified in place; merged instructions are re-costed with
    [latency]. *)

val detect_and_contract_reference :
  latency:(Qgate.Gate.t list -> float) -> Gdg.t -> int
(** The pre-oracle fixpoint (full re-sweep per round, per-prefix dense
    re-checks, full topological validation per merge), retained as the
    behavioural reference. *)

val grow_run : Gdg.t -> int -> int list
(** The longest contiguous run starting at a node whose support stays
    within one qubit pair (production table-backed bookkeeping; builds
    its tables per call — tests and one-off callers only). *)

val grow_run_reference : Gdg.t -> int -> int list
(** The list-based reference {!grow_run} (polymorphic sorts and chain
    walks), pinned equal to the production path by qcheck. *)
