(** Per-qubit commutation groups (paper §3.3.2).

    On each qubit, the instruction chain is partitioned into maximal runs
    of consecutive, pairwise-commuting instructions. Two instructions may
    be freely reordered iff they share a group on {e every} common qubit —
    e.g. the two CNOTs of a CNOT–Rz–CNOT structure share a group on the
    control qubit (an Rz there can travel through) but not on the target
    qubit. *)

type t

val build : ?commute:(Inst.t -> Inst.t -> bool) -> Gdg.t -> t
(** Pairwise operator-commutation checks along every chain. By default
    every check goes through the commutation oracle ({!Oracle.blocks})
    with a per-build summary cache keyed by instruction id — ids are
    unique and blocks immutable, so caching by id is sound, and each
    instruction is digested and classified once per build instead of
    once per pair probe. Callers that rebuild groups repeatedly (the
    aggregator) pass their own memoized [commute]. *)

val oracle_commute : unit -> Inst.t -> Inst.t -> bool
(** A fresh {!Oracle.blocks} query function with its own summary cache
    keyed by instruction id (sound because ids are unique and blocks
    immutable) — the default [commute] of {!build}, for callers that
    keep their own pair memo around it. *)

val build_reference : Gdg.t -> t
(** {!build} over the memo-free pre-oracle decision chain
    ({!Commute.insts_reference}); the qcheck suite pins the default
    build's partitions against it on every suite circuit. *)

val refresh :
  ?commute:(Inst.t -> Inst.t -> bool) -> t -> Gdg.t -> qubits:int list -> unit
(** Resync the groups of the listed qubits with their current chains — a
    merge changes membership solely on the merged instruction's support.
    Groups in the common prefix and suffix of the old and new chain are
    kept; only the window between is rescanned. The result equals
    {!build}'s on every chain. *)

val groups_on : t -> int -> int list list
(** Ordered groups (of instruction ids) on a qubit. *)

val group_index : t -> qubit:int -> int -> int
(** Position of an instruction's group on a qubit.
    Raises [Not_found] when the instruction is not on that qubit. *)

val lookup : t -> qubit:int -> int -> int
(** Total {!group_index}: [-1] when the instruction is not on the
    qubit — the O(1) membership probe schedulers sit on. *)

val same_group : t -> qubit:int -> int -> int -> bool

val reorderable : t -> Inst.t -> Inst.t -> bool
(** Same group on every shared qubit (true for disjoint supports). *)
