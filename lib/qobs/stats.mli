(** Aggregation and diffing of {!Ledger} rows — the engine behind
    [qcc stats].

    Pure over parsed JSON rows: rows whose [schema] is not
    [qcc.ledger/1] are counted as skipped, everything else folds into
    per-pass wall/allocation totals, cache hit rates and the
    commutation-route mix ([commute.route.*] / [detect.route.*]
    counters summed across rows). JSON output carries
    schema [qcc.stats/1]. *)

val schema : string
(** ["qcc.stats/1"]. *)

type pass_stat = {
  pass : string;
  calls : int;
  wall_ns : float;
  minor_words : float;
  major_words : float;
  major_collections : int;
}

type t = {
  rows : int;
  skipped : int;
  compile_time_s : float;
  cache_hits : int;
  cache_misses : int;
  passes : pass_stat list;  (** wall time descending, then name *)
  routes : (string * int) list;  (** sorted by metric name *)
  commute_checks : int;  (** sum of the [commute.checks] counter *)
  detect_checks : int;  (** sum of the [detect.checks] counter *)
  domains : (int * int) list;
      (** rows per worker-domain id (rows without a [domain] field
          contribute nothing), sorted by id — shows how a parallel
          driver spread the jobs *)
}

val of_rows : Json.t list -> t
val hit_rate : t -> float
(** Cache hit fraction in [0,1]; 0 when no cache traffic. *)

val detect_route_sum : t -> int
(** Sum of the [detect.route.*] counters. Every detection query takes
    exactly one route, so this must equal [detect_checks]; [pp_text]
    flags a violation. *)

val to_json : t -> Json.t
(** [qcc.stats/1], [mode = "aggregate"]. *)

val pp_text : ?top:int -> Format.formatter -> t -> unit
(** Human summary; [top] bounds the slowest-passes table (default 10). *)

type diff_entry = {
  name : string;
  base_ns : float;
  cur_ns : float;
}

type diff = {
  base : t;
  cur : t;
  delta : diff_entry list;  (** by absolute wall delta, descending *)
}

val diff : base:t -> cur:t -> diff
val ratio : diff_entry -> float
(** [cur/base]; [infinity] when the pass is new. *)

val diff_to_json : diff -> Json.t
(** [qcc.stats/1], [mode = "diff"]; new passes get [ratio = null]. *)

val pp_diff : ?top:int -> Format.formatter -> diff -> unit
