(** Executable specifications of commutation, memo-free.

    The paper resolves commutation "by explicitly checking the equality of
    unitary operators ÂB̂ and B̂Â" (§3.3). The compiler asks that question
    through {!Oracle} only; this module keeps the plain decision chains
    the qcheck suite pins the oracle against — structural fast paths for
    the common cases of Table 2 (disjoint supports, diagonal×diagonal),
    an attempt-and-fail phase-polynomial then Pauli-tableau dispatch, and
    the dense comparison last. None of these functions keeps a decision
    memo; the dense comparison shares the oracle's content-addressed
    unitary cache, which is pure. *)

val blocks_reference : Qgate.Gate.t list -> Qgate.Gate.t list -> bool
(** The pre-oracle decision chain (structural shortcuts, the
    {!Oracle.max_check_width} gate, attempt-and-fail phase-polynomial
    then tableau dispatch, dense fallback) — the qcheck suite pins
    {!Oracle.blocks} against it on random blocks and on every suite
    circuit. *)

val insts_reference : Inst.t -> Inst.t -> bool
(** {!blocks_reference} on the instructions' member gates. *)

val dense_commute : Qgate.Gate.t list -> Qgate.Gate.t list -> bool
(** The dense comparison on the joint support (false beyond
    {!Oracle.max_check_width}), with no algebraic fast paths — tests
    cross-check the fast paths against it. *)

val is_diagonal_block : Qgate.Gate.t list -> bool
(** Is the composed unitary diagonal in the computational basis? True
    algebraically when all members are diagonal; otherwise checked
    densely on the support (false beyond {!Oracle.max_check_width}). *)
