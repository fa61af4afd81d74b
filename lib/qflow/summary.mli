(** Content-addressed per-instruction algebraic summaries.

    A summary classifies a member-gate block by the cheapest abstract
    domain that pins its semantics — identity, diagonal, Clifford
    (Pauli tableau), CNOT+diagonal (phase polynomial) — together with
    its support and a content digest of the block relabelled onto its
    own support. Classification lives in the GDG-layer commutation
    oracle ({!Qgdg.Oracle}) and is memoized on the digest: congruent
    blocks anywhere on the register (the same excitation or adder
    template stamped onto different qubit sets) are classified once per
    domain, and the detect pass, CLS grouping and this layer share the
    table. Cache traffic is observable through the ambient metrics
    registry as [qflow.summary.hit] / [qflow.summary.miss]
    (see {!Qobs.Metrics}); [qcc analyze] prints it. Whether two blocks
    commute is the oracle's question alone
    ({!Qgdg.Oracle.algebraic_blocks} for the QL070 lint). *)

type klass = Qgdg.Oracle.klass =
  | Identity  (** provably identity up to global phase *)
  | Diagonal  (** diagonal in the computational basis *)
  | Clifford  (** inside the Pauli-tableau fragment *)
  | Phase_linear  (** inside the CNOT+diagonal fragment (non-Clifford) *)
  | General  (** escapes every algebraic domain *)

val klass_to_string : klass -> string
(** Lower-case name: ["identity"] … ["general"]. *)

type t = Qgdg.Oracle.t = {
  digest : string;  (** hex digest of the relabelled member list *)
  support : int list;  (** sorted qubit support *)
  klass : klass;
  in_clifford : bool;  (** tableau domain applies (independent of klass) *)
  in_phase_poly : bool;  (** phase-polynomial domain applies *)
  all_diagonal : bool;  (** every member gate is syntactically diagonal *)
}

val of_gates : Qgate.Gate.t list -> t
val of_inst : Qgdg.Inst.t -> t
