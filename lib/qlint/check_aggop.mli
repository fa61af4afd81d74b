(** Aggregation-opportunity lints (QL07x) over a gate dependence graph.

    - QL070 info: two chain-adjacent instructions whose algebraic
      summaries ({!Qflow.Summary}) prove they commute as operators, and
      whose joint support fits the width limit — a merge (or reorder)
      opportunity the optimizer left on the table
    - QL071 info: an aggregate all of whose members are diagonal (so
      they mutually commute and admit one optimal-control pulse), yet
      whose recorded latency is the serial sum of its members' gate
      times — the block was costed serially

    Both are advisory ([Info]): on a final aggregated GDG a reported
    pair may have been legitimately rejected (monotonicity veto), and a
    CLS-contracted block is serially costed by design. The lints make
    the leftover opportunities visible; `qcc lint --semantic` surfaces
    them without failing CI.

    QL070 applies two width caps: a pair is asked only when its joint
    support fits [width_limit], and {!Qgdg.Oracle.algebraic_blocks}
    examines a pair wider than 12 joint qubits only by its
    disjoint/all-diagonal shortcut. So even under a [width_limit] above
    12, a pair of 13 or more joint qubits is reported only when both
    members are identity/diagonal; a commuting non-diagonal pair that
    wide is passed over without a diagnostic.

    QL071 needs a per-gate cost and is skipped when [gate_time] is not
    given. *)

val run :
  ?stage:string ->
  ?gate_time:(Qgate.Gate.t -> float) ->
  width_limit:int ->
  Qgdg.Gdg.t ->
  Diagnostic.t list
