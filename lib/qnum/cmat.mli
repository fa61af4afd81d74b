(** Dense complex matrices.

    Row-major storage in two float arrays. This module is the workhorse for
    gate unitaries, Hamiltonians and small-system propagators; dimensions are
    expected to stay small (≤ 2¹⁰). *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val rows : t -> int
val cols : t -> int

val init : int -> int -> (int -> int -> Cx.t) -> t
val of_lists : Cx.t list list -> t
(** Raises [Invalid_argument] on ragged input. *)

val of_real_lists : float list list -> t

val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t

val identity : int -> t
val zeros : int -> int -> t

val diag : Cx.t array -> t
(** Square matrix with the given diagonal. *)

val diagonal : t -> Cx.t array
(** Diagonal entries of a square matrix. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Cx.t -> t -> t
val scale_real : float -> t -> t
val mul : t -> t -> t
(** Matrix product. Raises [Invalid_argument] on dimension mismatch. *)

val mul_list : t list -> t
(** [mul_list [a; b; c]] is [a*b*c]. Raises on the empty list. *)

val pow : t -> int -> t
(** [pow m k] for square [m], [k >= 0]. *)

val transpose : t -> t
val conj : t -> t
val dagger : t -> t
(** Conjugate transpose. *)

val trace : t -> Cx.t

val kron : t -> t -> t
(** Kronecker (tensor) product; [kron a b] has block structure a_ij·b. *)

val kron_list : t list -> t

val apply : t -> Vec.t -> Vec.t
(** Matrix–vector product. *)

val column : t -> int -> Vec.t
val row : t -> int -> Vec.t

val max_abs : t -> float
val max_abs_diff : t -> t -> float
val frobenius_norm : t -> float

val equal : ?eps:float -> t -> t -> bool
(** Entrywise comparison with absolute tolerance (default [1e-9]).
    [false] when either matrix has a non-finite entry, as for
    {!equal_up_to_phase}, {!commute} and {!commute_embedded}. *)

val equal_up_to_phase : ?eps:float -> t -> t -> bool
(** [equal_up_to_phase a b] holds when [a = exp(iφ)·b] for some global
    phase φ. This is the right notion of equality for quantum unitaries. *)

val is_square : t -> bool
val is_unitary : ?eps:float -> t -> bool
val is_hermitian : ?eps:float -> t -> bool
val is_diagonal : ?eps:float -> t -> bool

val commute : ?eps:float -> t -> t -> bool
(** [commute a b] tests [a*b = b*a]; [false] on a non-finite entry. *)

val det : t -> Cx.t
(** Determinant via LU decomposition with partial pivoting. *)

val fidelity : t -> t -> float
(** [fidelity u v] is |tr(u† v)|² / d² for d×d unitaries — the standard
    (phase-insensitive) gate fidelity used as the GRAPE loss. *)

(** {1 Qubit-indexed helpers}

    Qubit [0] is the most significant bit of a basis-state index, matching
    the usual big-endian circuit-diagram convention: for a 2-qubit system,
    basis order is |00⟩,|01⟩,|10⟩,|11⟩ with qubit 0 on the left. *)

val embed : n_qubits:int -> targets:int list -> t -> t
(** [embed ~n_qubits ~targets u] lifts a 2^k×2^k unitary [u] acting on the
    listed target qubits (in the order given, which maps to [u]'s own qubit
    order) to the full 2ⁿ×2ⁿ space, acting as identity elsewhere.
    Raises [Invalid_argument] on duplicate or out-of-range targets or when
    [u]'s dimension is not 2^(length targets). *)

val mul_embedded : n_qubits:int -> targets:int list -> t -> t -> t
(** [mul_embedded ~n_qubits ~targets u m] is
    [mul (embed ~n_qubits ~targets u) m] computed without materializing the
    embedded operator — O(4ⁿ·2^k) for a k-qubit [u] instead of the O(8ⁿ)
    full product. This is the workhorse for composing gate sequences into
    block unitaries. Raises like {!embed} on bad targets, plus when [m]
    does not have 2ⁿ rows. *)

val apply_embedded :
  n_qubits:int -> targets:int list -> t -> re:float array -> im:float array -> unit
(** [apply_embedded ~n_qubits ~targets u ~re ~im] overwrites the 2ⁿ-vector
    with real parts [re] and imaginary parts [im] by
    [embed ~n_qubits ~targets u] times it, in place and without
    materializing the embedded operator — O(2ⁿ·2^k) for a k-qubit [u].
    Every term is summed (no zero-skipping), so non-finite entries of [u]
    always reach the output. Raises like {!embed} on bad targets, plus
    when either array's length is not 2ⁿ. *)

val commute_embedded :
  ?eps:float ->
  n_qubits:int ->
  targets_a:int list ->
  t ->
  targets_b:int list ->
  t ->
  bool
(** [commute_embedded ~n_qubits ~targets_a ua ~targets_b ub] decides
    [commute (embed ua) (embed ub)] without materializing either embedded
    operator: each row·column term sum only visits the structurally
    nonzero entries, so the cost is O(4ⁿ·(2^ka + 2^kb)) instead of O(8ⁿ).
    Term order and zero-skipping match {!commute} on the embedded
    matrices, so the two always return the same answer; [false] on a
    non-finite entry. Raises like {!embed} on bad targets. *)

val permute_qubits : int array -> t -> t
(** [permute_qubits perm u] relabels the qubits of a 2ⁿ×2ⁿ matrix:
    qubit [q] of the input becomes qubit [perm.(q)] of the output. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
