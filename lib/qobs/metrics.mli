(** Named counters, gauges and histograms for the compilation pipeline.

    A registry is either enabled or the shared {!disabled} null registry;
    every recording operation checks the flag before touching (or
    allocating) anything, so default-off instrumentation costs one branch.

    Deep pipeline passes (commutation checks, routing, CLS, aggregation,
    the latency model) record through the {e ambient} registry — a
    process-wide current registry installed by [Compiler.compile] around a
    traced compilation ({!with_ambient}) — so their call signatures stay
    clean. The ambient registry defaults to {!disabled}.

    Kinds are fixed by first use of a name: recording a different kind
    under an existing name is ignored. *)

type t

type hist_stats = {
  n : int;
  sum : float;
  min : float;
  max : float;
}

val create : unit -> t
val disabled : t
val enabled : t -> bool
val reset : t -> unit

val incr : t -> ?by:int -> string -> unit
(** Counter increment ([by] defaults to 1). *)

val gauge : t -> string -> float -> unit
(** Gauge: last write wins. *)

val observe : t -> string -> float -> unit
(** Histogram sample: summary stats (count/sum/min/max) plus a fixed
    log-spaced bucket grid (half-powers of two spanning ~3e-10..3e9) from
    which {!hist_quantile} and the exported p50/p90/p99 are read. *)

val counter_value : t -> string -> int
(** 0 when absent or not a counter. *)

val gauge_value : t -> string -> float option
val hist_value : t -> string -> hist_stats option

val hist_quantile : t -> string -> float -> float option
(** Bucket-estimated quantile of a histogram (worst-case relative error
    one bucket ratio, [sqrt 2]), clamped to the observed min/max; [None]
    when absent or not a histogram. [q <= 0] reads the min, [q >= 1] the
    max. *)

val names : t -> string list
(** Sorted. *)

val to_json : t -> Json.t
(** One field per metric, sorted by name: counters as ints, gauges as
    floats, histograms as [{count,max,mean,min,p50,p90,p99,sum}] objects
    (keys sorted). Byte-deterministic given the same recorded samples. *)

val pp_text : Format.formatter -> t -> unit
val write_file : string -> t -> unit

val absorb : into:t -> t -> unit
(** In-place shard join: fold [src] into [into] under the same pointwise
    law as {!merge} ([into] ⊕ [src] per name; [src] is not mutated).
    The parallel drivers use it to land per-job shards — merged in job
    index order — in the caller's registry without replacing the
    caller's [t]. No-op when [into] is disabled. *)

val merge : t -> t -> t
(** Pointwise shard join (fresh registry; the arguments are not
    mutated): counters add, histograms add counts/sums/buckets and
    widen min/max, gauges keep the max. Commutative and associative —
    a domain pool can join per-domain shards in any order and get the
    same snapshot ({!to_json} byte-identical), which the qcheck laws in
    the test suite pin. On a name bound to different metric kinds the
    winner is chosen by fixed kind priority (histogram > gauge >
    counter), independent of argument order. *)

(** {2 Ambient registry}

    Per-domain ([Domain.DLS]): each domain sees (and installs) its own
    ambient registry, starting at {!disabled}. Concurrent compiles on a
    domain pool therefore tick into disjoint shards, which the spawner
    {!merge}s at join — no cross-domain write can race. *)

val ambient : unit -> t
val set_ambient : t -> unit
(** Install for the {e calling domain} only. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install, run, restore (also on exceptions). *)

val tick : ?by:int -> string -> unit
(** [incr] on the ambient registry. *)

val record : string -> float -> unit
(** [observe] on the ambient registry. *)

val set : string -> float -> unit
(** [gauge] on the ambient registry. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed name f] runs [f] and records its wall time in milliseconds
    as a histogram sample on the ambient registry. The clock is read
    only when that registry is enabled. *)
