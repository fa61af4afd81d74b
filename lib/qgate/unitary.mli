(** Gate unitaries as dense matrices.

    Basis convention follows {!Qnum.Cmat}: qubit 0 is the most significant
    index bit. For a gate, local qubit order is the order of
    [Gate.qubits]. *)

val of_kind : Gate.kind -> Qnum.Cmat.t
(** The gate's matrix on its own 2^arity-dimensional space. *)

val of_gate : n_qubits:int -> Gate.t -> Qnum.Cmat.t
(** The gate lifted to the full 2ⁿ space. *)

val of_gates : n_qubits:int -> Gate.t list -> Qnum.Cmat.t
(** Product of lifted gates applied in list (time) order: for gate list
    [g1; g2; ...] the result is ... · U(g2) · U(g1). Each gate is applied
    locally ({!Qnum.Cmat.mul_embedded}), so the cost is 4ⁿ·2^arity per
    gate, not a full 8ⁿ matrix product. *)

val equal_up_to_global_phase :
  ?eps:float -> Qnum.Cmat.t -> Qnum.Cmat.t -> bool
(** [equal_up_to_global_phase u v] holds when [u = exp(iφ)·v] for some
    global phase φ (entrywise, absolute tolerance [eps], default [1e-9]) —
    the right notion of operator equality for circuits, since a global
    phase is unobservable. Use this rather than a fidelity threshold when
    exact equivalence (not approximation quality) is meant. *)

val state_of_gates : n_qubits:int -> Gate.t list -> Qnum.Cx.t array
(** The statevector obtained by applying the gates in list (time) order to
    |0…0⟩, indexed by the {!Qnum.Cmat} basis convention. Each gate costs
    2ⁿ·4^arity, so this is far cheaper than {!of_gates} when only one
    column of the joint unitary is needed (e.g. to separate two operators
    already known equal up to a global phase). *)

val apply_gates :
  n_qubits:int -> Gate.t list -> re:float array -> im:float array -> unit
(** [apply_gates ~n_qubits gates ~re ~im] applies the gates in list (time)
    order to the 2ⁿ-vector with real parts [re] and imaginary parts [im],
    in place ({!Qnum.Cmat.apply_embedded} per gate: one gate matrix per
    gate, no per-amplitude allocation). {!state_of_gates} is this kernel
    started from |0…0⟩. Raises [Invalid_argument] when an array's length
    is not 2ⁿ or a gate's qubits fall outside [0, n). *)

val on_support : Gate.t list -> int list * Qnum.Cmat.t
(** [on_support gates] computes the joint unitary of [gates] on the sorted
    union of their supports (relabelled locally); returns
    (support, unitary). Raises [Invalid_argument] on the empty list. *)

(** {1 Named constant matrices} *)

val pauli_x : Qnum.Cmat.t
val pauli_y : Qnum.Cmat.t
val pauli_z : Qnum.Cmat.t
val hadamard : Qnum.Cmat.t
