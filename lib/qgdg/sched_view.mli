(** An incrementally maintained schedule view of a {!Gdg}: chain links,
    ASAP times, tail lengths and the makespan, shared by the passes that
    contract the graph one merge at a time ({!Diagonal},
    [Qagg.Aggregator]). A merge re-links the merged support's chains and
    re-propagates times from the few nodes whose inputs changed, on
    worklists popped in topological order; every table then equals a
    from-scratch {!build} bit for bit (pinned by qcheck).

    Tables are flat arrays indexed by node id, grown by doubling;
    per-qubit tables are laid out [id * nq + qubit]. [nan] (floats) and
    [-1] (ints) mark an absent node, neighbour or position. Fields are
    exposed for the passes' hot reads; only this module writes them. *)

type work
(** Worklist scratch space (heaps, membership stamps, pending seeds). *)

type t = private {
  g : Gdg.t;
  nq : int;  (** row width of the per-qubit tables, [max 1 n_qubits] *)
  mutable node : Inst.t option array;  (** id -> live instruction *)
  mutable pred : int array;  (** [id*nq+q] -> chain predecessor *)
  mutable succ : int array;  (** [id*nq+q] -> chain successor *)
  mutable pos : int array;
      (** [id*nq+q] -> position in the chain; full views only *)
  mutable start : float array;  (** ASAP start *)
  mutable finish : float array;  (** ASAP finish *)
  mutable tail : float array;
      (** latency plus the largest successor tail: the distance from the
          node's start to the end of the schedule along its critical
          path; full views only *)
  last : int array;  (** qubit -> last node of its chain, [-1] empty *)
  mutable makespan : float;
  full : bool;
  work : work;
}

val build : ?full:bool -> Gdg.t -> t
(** Every table from scratch: one chain pass and one Kahn pass. A [full]
    view (default [false]) also keeps chain positions and tails, the
    tables the aggregator reads; without them the view needs no
    [id*nq+q] position table. Raises [Failure] on a cyclic graph. *)

val after_merge : t -> a:int -> b:int -> Inst.t -> unit
(** [after_merge v ~a ~b merged] patches the links, the ASAP times and
    the makespan after [Gdg.merge ~rank:(rank v) v.g ~latency a b]
    returned [merged]; call it before any other change to the graph.
    Tails are left stale until {!update_tails}. *)

val update_tails : t -> unit
(** Brings the tails up to date after the merges since the last call, by
    re-propagating from the old chain predecessors of each merge's
    endpoints and the merged nodes. Raises [Invalid_argument] on a view
    that is not full. *)

val rank : t -> int -> float
(** ASAP start, [neg_infinity] for an id with no live node: the
    topological potential {!Gdg.merge} takes as [~rank]. *)

val latest_start : t -> int -> float
(** ALAP start, [makespan - tail]. *)
