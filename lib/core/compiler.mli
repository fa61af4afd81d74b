(** End-to-end compilation pipelines (paper Fig. 5).

    All strategies share the frontend (ISA lowering) and the mapping layer
    (recursive-bisection placement + SWAP routing on the device topology);
    they differ in commutativity detection, scheduling, aggregation and
    pulse costing:

    - [Isa]: route the gate stream in program order, cost each gate with
      the per-gate pulse table, ASAP-schedule.
    - [Cls]: contract diagonal blocks (commutativity detection), CLS on
      the logical GDG, route the linearization, CLS again on the physical
      GDG; blocks still cost the serial sum of their member gates (no
      custom pulses).
    - [Aggregation]: no commutativity-aware scheduling; contract diagonal
      blocks and run monotonic aggregation on the routed program-order
      GDG with optimal-control (latency-model) costing; ASAP.
    - [Cls_aggregation]: the full pipeline — detection, CLS, mapping,
      aggregation (SWAPs may merge into neighboring blocks), final CLS.
    - [Cls_hand]: hand-optimize (ZZ fusion, cancellations), CLS, route,
      hand-optimize again, final CLS; fused gates cost their direct-pulse
      times.

    The returned GDG and schedule are on physical (device-site) qubits. *)

type config = Backend.t = {
  device : Qcontrol.Device.t;
  topology : Qmap.Topology.t option;
      (** default: smallest near-square grid fitting the circuit *)
  width_limit : int;  (** aggregation width bound (default 10) *)
}
(** Alias for {!Backend.t} — the compiler's view of the target machine.
    Kept as a transparent record so [{ default_config with ... }] call
    sites read naturally. *)

val default_config : config

type result = {
  strategy : Strategy.t;
  schedule : Qsched.Schedule.t;
  latency : float;  (** makespan, ns *)
  gdg : Qgdg.Gdg.t;
  initial_placement : Qmap.Placement.t;
      (** logical qubit → device site before the first instruction *)
  final_placement : Qmap.Placement.t;
      (** logical qubit → device site after the last instruction (differs
          from the initial placement by the net effect of routing SWAPs);
          needed to interpret measurement outcomes *)
  n_instructions : int;
  n_swaps_inserted : int;
  n_merges : int;  (** diagonal contractions + aggregation merges *)
  compile_time : float;
      (** wall-clock seconds on the monotonic clock ({!Qobs.Clock}) —
          {e not} CPU time *)
  diagnostics : Qlint.Diagnostic.t list;
      (** static-check findings accumulated across pass boundaries; always
          [[]] unless compiled with [~check:true] *)
  trace : Qobs.Span.t option;
      (** the root ["compile"] span with one child per pipeline pass (see
          {!passes}); [None] unless compiled with an enabled [~obs]
          collector *)
  certificate : Qcert.Certificate.t option;
      (** per-boundary translation-validation certificate; [None] unless
          compiled with [~certify:true] *)
}

val passes : Strategy.t -> string list
(** The span names a traced compile emits for the strategy, in pipeline
    order — each appears exactly once under the root ["compile"] span.
    Derived from the pass registry ({!Strategy.passes}). *)

val describe_passes : Strategy.t -> (string * string * string) list
(** [(name, input stage, output stage)] per pass, in pipeline order. *)

val canonical_passes : unit -> string list
(** The union of all strategies' passes in canonical pipeline order,
    derived from the registry (used by [qcc profile]'s pass table). *)

val compile :
  ?config:config -> ?check:bool -> ?certify:bool -> ?obs:Qobs.Trace.t ->
  ?metrics:Qobs.Metrics.t -> ?cache:Pipeline.Cache.t ->
  ?ledger:Qobs.Ledger.t -> ?source_label:string ->
  strategy:Strategy.t -> Qgate.Circuit.t ->
  result
(** [~check:true] runs the Qlint checker families at every pass boundary
    (lowered circuit, GDG construction, logical CLS schedule, routing,
    aggregation, final schedule). Warnings and infos accumulate into
    {!field:result.diagnostics}; the first boundary that produces an
    error-severity diagnostic aborts compilation by raising
    [Qlint.Report.Check_failed] carrying everything gathered so far.
    [~check:false] (the default) costs nothing.

    [~certify:true] additionally runs the Qcert translation validators at
    every pass boundary (lowering, GDG construction, diagonal
    contraction, CLS/final scheduling, routing replay, rebuilding,
    aggregation, and — on registers of at most
    {!Qcert.Pipeline.end_to_end_limit} sites — a dense end-to-end unitary
    check). The certificate lands in {!field:result.certificate}; the
    first refuted boundary aborts compilation by raising
    [Qcert.Certificate.Certification_failed] with the partial
    certificate, mirroring the [~check] behavior.

    [~obs] (default {!Qobs.Trace.disabled}) wraps every pass in a timed
    span — the qlint checkpoints run {e between} spans so checking cost
    never pollutes pass times, and certifiers get their own
    ["certify-<boundary>"] spans — and fills {!field:result.trace}.
    [~metrics] (default {!Qobs.Metrics.disabled}) receives the compiler's
    own counters/gauges and is installed as the ambient registry
    ({!Qobs.Metrics.with_ambient}) so the deep passes (commutation
    checks, routing, CLS, aggregation, latency model) record into it too,
    as do the certifiers ([qcert.proved] / [qcert.refuted] /
    [qcert.skipped] / [qcert.facts]). Both defaults are null collectors:
    the disabled path is one branch per seam, no allocation.

    [~cache] (default: none) shares stage artifacts across compiles —
    see {!Pipeline}. Results are identical with and without it.

    [~ledger] (default: none) appends one [qcc.ledger/1] row to the
    flight recorder after a successful compile: backend / source /
    pass-chain digests, per-pass wall time and GC allocation, the metric
    snapshot, and this run's stage-cache hit/miss deltas. When the
    caller supplies no [~obs]/[~metrics], private enabled collectors are
    created so every row carries full per-pass and per-route data — and
    each row's metric snapshot is then per-run, which is what
    [qcc stats] sums over. [~source_label] names the row's [source]
    field (e.g. the benchmark or file name). *)

val compile_all :
  ?config:config -> ?check:bool -> ?certify:bool -> ?obs:Qobs.Trace.t ->
  ?metrics:Qobs.Metrics.t -> ?cache:Pipeline.Cache.t ->
  ?ledger:Qobs.Ledger.t -> ?source_label:string -> ?jobs:int ->
  Qgate.Circuit.t ->
  (Strategy.t * result) list
(** All five strategies on one circuit (sharing the collectors). By
    default a fresh stage cache is created for the call, so the shared
    pipeline prefix (lowering everywhere; placement and routing between
    ISA and aggregation) is computed once per circuit.

    [?jobs] selects the driver. Omitted: the sequential driver — every
    strategy compiles on the calling domain with the caller's
    collectors and warm memos, exactly as before. [~jobs:n] (any
    [n >= 1]): the pooled driver ({!Parallel.map}) — strategies become
    jobs on a pool of [n] domains sharing the one compute-once stage
    cache (and the ledger, when given); every worker runs
    {!reset_all_memos} before its first job, metrics land as per-job
    shards merged in job-index order into the caller's registry, and an
    enabled [~obs] is replaced by a private per-job trace collector
    (each {!field:result.trace} is that job's root span; the caller's
    collector itself records nothing). Results — latencies, merges,
    swaps, diagnostics, certificates — are byte-identical for every
    [n], including [n = 1], which is the pooled driver's sequential
    reference. Ledger row {e order} is scheduling-dependent under
    [n > 1]; row contents are not. *)

val compile_matrix :
  ?config:config -> ?check:bool -> ?certify:bool ->
  ?metrics:Qobs.Metrics.t -> ?cache:Pipeline.Cache.t ->
  ?ledger:Qobs.Ledger.t -> ?jobs:int ->
  (string * Qgate.Circuit.t) list ->
  (string * (Strategy.t * result) list) list
(** The full benchmark×strategy matrix as one job pool: every (circuit,
    strategy) cell is an independent job ([jobs] defaults to 1 — the
    sequential reference on the calling domain), flattened
    benchmark-major so results regroup deterministically. One shared
    compute-once stage cache spans the whole matrix; each job's
    [source_label] (and its ledger row's [source]) is the given name.
    Same determinism contract and shard discipline as
    [compile_all ~jobs]. Backs [qcc compare -j] and the [par-scale]
    bench. *)

val blocks : result -> Qgate.Gate.t list list
(** Final aggregated instructions as member-gate lists (for
    verification). *)

val speedup : baseline:result -> result -> float
(** baseline latency / this latency. *)

val reset_all_memos : unit -> unit
(** Return the {e calling domain} to a cold start: clears the commutation
    oracle's classification, pair, diagonal and unitary memos
    ([Qgdg.Oracle], the only commutation memos) and the latency-cost
    memos ([Qcontrol.Latency_model]) — all per-domain tables.
    Idempotent; a compile after reset reports the same cache-miss
    counters as a fresh process. *)
