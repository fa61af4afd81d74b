(** Decision procedures over the certification domains.

    Every question the per-boundary certifiers ask reduces to one of
    three judgments about gate words:

    - equivalence up to global phase ({!equal_gates}),
    - commutation of two blocks ({!blocks_commute}),
    - diagonality in the computational basis ({!is_diagonal_gates}).

    Each judgment tries, in order: syntactic fast paths, the complete
    symbolic domains ({!Qdomain.Tableau} for Clifford words,
    {!Qdomain.Phase_poly} for CNOT+diagonal words), and a dense-unitary
    fallback ({!Qgate.Unitary.on_support}) on supports of at most
    {!dense_limit} qubits. A [Proved]/[Refuted] answer is always sound;
    [Unknown] means the word left every domain and was too wide for the
    dense check. *)

type verdict = Proved | Refuted | Unknown

val verdict_to_string : verdict -> string

val dense_limit : int
(** Support width bound for the dense-unitary fallback (10). *)

val support : Qgate.Gate.t list -> int list
(** Sorted union of the gates' qubits. *)

val equal_gates :
  ?dense_limit:int -> Qgate.Gate.t list -> Qgate.Gate.t list ->
  verdict * string
(** [equal_gates a b] decides whether the two words implement the same
    unitary up to global phase on their joint support. The string names
    the deciding method ("identical", "tableau", "dense", "phase-poly",
    …). Qubit labels are taken as given (both words live in the same
    register); the joint support is relabelled internally. *)

val blocks_commute :
  ?dense_limit:int -> Qgate.Gate.t list -> Qgate.Gate.t list ->
  verdict * string
(** Whether the two blocks commute as operators up to global phase —
    i.e. the words [a·b] and [b·a] are equivalent. Disjoint supports,
    identical words and jointly-diagonal blocks are fast paths. *)

val is_diagonal_gates :
  ?dense_limit:int -> Qgate.Gate.t list -> verdict * string
(** Whether the word's unitary is diagonal in the computational basis
    (the semantic property {!Qgdg.Diagonal} relies on). *)

val dense_on_support : Qgate.Gate.t list -> Qnum.Cmat.t option
(** The word's unitary relabelled to its support, when the support is
    within {!dense_limit} (and the word nonempty); [None] otherwise. *)
