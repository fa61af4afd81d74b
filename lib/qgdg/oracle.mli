(** The commutation oracle: the one place that decides whether two
    blocks commute, the paper's ÂB̂ = B̂Â check (§3.3).

    A block's {e summary} is its content digest (relabelled onto its own
    support), its sorted support, and its classification by the cheapest
    abstract domain that pins its semantics — identity / diagonal /
    Clifford / phase-linear / general — plus the raw fragment-membership
    flags the dispatcher routes on. Classification is memoized on the
    digest, so congruent blocks anywhere on the register (the same
    excitation or adder template stamped onto different qubit sets) are
    classified once per domain.

    Four consumers sit on top of the oracle: pairwise commutation for
    the compiler ({!blocks}), the algebraic-only query behind the QL070
    lint ({!algebraic_blocks}), diagonal-prefix recognition for the
    detect pass ({!scan_push} / {!scan_is_diagonal}, consumed by
    {!Diagonal}), and CLS group construction ({!Comm_group.build} passes
    per-instruction summaries back into {!blocks}). {!Commute} holds the
    memo-free reference specifications the qcheck suite pins these
    against. All memo tables are per-domain (Domain.DLS) and cleared by
    {!reset_memos}, so [-j N] runs stay byte-identical. *)

type klass = Identity | Diagonal | Clifford | Phase_linear | General

val klass_to_string : klass -> string
(** Lower-case name: ["identity"] … ["general"]. *)

type t = {
  digest : string;  (** hex digest of the relabelled member list *)
  support : int list;  (** sorted qubit support *)
  klass : klass;
  in_clifford : bool;  (** tableau domain applies (independent of klass) *)
  in_phase_poly : bool;  (** phase-polynomial domain applies *)
  all_diagonal : bool;  (** every member gate is syntactically diagonal *)
}

val of_gates : Qgate.Gate.t list -> t * bool
(** The block's summary plus whether the classification was a memo hit
    (callers that meter cache traffic — {!Qflow.Summary} — tick on the
    flag; this module itself never ticks classification counters). *)

val max_check_width : int
(** Support-size cap (8) above which the dense check is not attempted. *)

val blocks : ?sa:t -> ?sb:t -> Qgate.Gate.t list -> Qgate.Gate.t list -> bool
(** Do two member-gate blocks commute as whole operators? Structural
    shortcuts (empty, disjoint supports, both sides syntactically
    diagonal), then the width gate, the klass-pair shortcut, the
    digest-pair memo, the flag-dispatched algebraic domains, and the
    dense comparison last. [sa]/[sb] supply precomputed summaries
    (callers holding per-instruction caches); otherwise summaries are
    computed (and digest-memoized) per call.

    Ticks [commute.checks] and exactly one [commute.route.<r>] counter
    (structural / memo / phase_poly / tableau / dense / oversize) with a
    matching [.ms] histogram when a metrics registry is ambient. *)

val algebraic_blocks :
  sa:t -> sb:t -> Qgate.Gate.t list -> Qgate.Gate.t list -> bool option
(** [algebraic_blocks ~sa ~sb a b]: do the blocks commute as operators,
    decided {e algebraically only}? Disjoint supports and two
    identity/diagonal klasses answer [Some true]; a joint support wider
    than 12 qubits answers [None]; otherwise the phase-polynomial domain
    (exact) or the tableau domain (up to a statevector-column
    global-phase tie-break) decides on the pair relabelled onto the
    joint support, and a pair outside both fragments answers [None]. No
    dense fallback, no memo and no metrics: the QL070 lint asks each
    adjacent pair once. *)

val relabel_onto : int list -> Qgate.Gate.t list -> Qgate.Gate.t list
(** [relabel_onto support gs]: the gates with each qubit replaced by its
    position in [support] (order-preserving; every qubit of [gs] must be
    in [support]). *)

val dense_on : n_qubits:int -> Qgate.Gate.t list -> Qgate.Gate.t list -> bool
(** The dense comparison on already-relabelled gates (support 0..n-1).
    Refute-first: a fixed seeded probe vector v (‖v‖₁ = 1) is pushed
    through both orders, and a residual max_i |(ABv − BAv)_i| above
    1e-9 + 1e-7 answers [false] at once — sound, since |(Mv)_i| ≤
    max_j |M_ij|·‖v‖₁ for M = AB − BA, so the entrywise check would fail
    too. Otherwise (a small or non-finite residual) both own-support
    unitaries come from the content-addressed cache and
    {!Qnum.Cmat.commute_embedded} decides, so every answer equals the
    unconditional entrywise check (the qcheck suite pins this).

    Ticks [commute.dense.refuted] per probe refutation and records
    [commute.dense.build.ms] / [commute.dense.compare.ms] (unrefuted
    queries) when a metrics registry is ambient. *)

val unitary_on_own : Qgate.Gate.t list -> int list * Qnum.Cmat.t
(** The block's unitary on its own sorted support (cached; a cache miss
    ticks [commute.dense.builds]). *)

(** {2 Incremental diagonal-prefix scanning}

    The detect pass grows pair-confined runs and asks, per prefix,
    whether the composed unitary is diagonal. A scan composes the run
    once — syntactic diagonality, a first-seen relabelling (prefix-stable
    and label-independent), an in-place phase polynomial, and a
    prefix-free key buffer — so an n-gate run costs O(n) domain updates
    instead of the reference's O(n²) rebuild, and every decision is
    memoized per congruence class in the per-domain [diagonal] table.

    Every {!scan_is_diagonal} call ticks [detect.checks] and exactly one
    [detect.route.<r>] counter (structural / memo / phase_poly / dense /
    oversize) with a matching [.ms] histogram. *)

type scan

val scan_create : unit -> scan

val scan_push : scan -> Qgate.Gate.t list -> unit
(** Append the next run node's member gates to the scanned prefix. *)

val scan_is_diagonal : scan -> bool
(** Is the current prefix's composed unitary diagonal in the
    computational basis? Decision-identical to
    {!Commute.is_diagonal_block} on the concatenated prefix (the qcheck
    suite pins this). *)

val reset_memos : unit -> unit
(** Clear the calling domain's classification, pair, diagonal and
    unitary memos. Benchmarks use this to measure cold-path timings
    reproducibly; results are unaffected (the memos are pure caches). *)
