(** Quantum circuits: an ordered gate list over a fixed qubit register. *)

type t = { n_qubits : int; gates : Gate.t list }

val make : int -> Gate.t list -> t
(** Raises [Invalid_argument] naming the gate when a gate touches a
    qubit outside [0 .. n_qubits-1] or has a non-finite parameter
    ([nan] or an infinity in {!Gate.params}). A circuit built as a
    record literal skips both checks until {!Decompose.to_isa}, which
    rebuilds through [make]. *)

val empty : int -> t
val append : t -> Gate.t -> t
(** Same checks as {!make} on the appended gate. *)

val concat : t -> t -> t
(** Sequential composition; qubit counts must agree. *)

val n_gates : t -> int
val n_qubits : t -> int
val gates : t -> Gate.t list

val count : (Gate.t -> bool) -> t -> int
val two_qubit_count : t -> int

val depth : t -> int
(** Unit-latency circuit depth: the longest chain of gates sharing qubits
    (the classic gate-count depth, used for program characteristics). *)

val critical_path_time : (Gate.t -> float) -> t -> float
(** Depth under a per-gate latency function: an ASAP schedule's makespan
    when every gate occupies exactly its own qubits. *)

val used_qubits : t -> int list
val interaction_graph : t -> Qgraph.Graph.t
(** Weighted qubit-interaction graph: an edge per 2-qubit interaction,
    weight = number of such gates (3-qubit gates contribute all pairs). *)

val map_qubits : (int -> int) -> t -> t
(** Relabels qubits; the register size is unchanged. Raises if a gate's
    qubits collapse or leave the register. *)

val adjoint : t -> t
(** Reverse circuit of adjoint gates. Raises where {!Gate.adjoint} does. *)

val unitary : t -> Qnum.Cmat.t
(** Full 2ⁿ unitary. Raises [Invalid_argument] for [n_qubits > 12]. *)

val equal_semantics : ?eps:float -> t -> t -> bool
(** Unitary equality up to global phase (small circuits only). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
