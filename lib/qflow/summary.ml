type klass = Qgdg.Oracle.klass =
  | Identity
  | Diagonal
  | Clifford
  | Phase_linear
  | General

let klass_to_string = Qgdg.Oracle.klass_to_string

type t = Qgdg.Oracle.t = {
  digest : string;
  support : int list;
  klass : klass;
  in_clifford : bool;
  in_phase_poly : bool;
  all_diagonal : bool;
}

(* Classification lives in the GDG-layer oracle (Qgdg.Oracle), so the
   detect pass, CLS grouping and this layer share one digest-keyed
   table; this module only meters its traffic. *)
let of_gates gs =
  let s, hit = Qgdg.Oracle.of_gates gs in
  Qobs.Metrics.tick (if hit then "qflow.summary.hit" else "qflow.summary.miss");
  s

let of_inst (i : Qgdg.Inst.t) = of_gates i.Qgdg.Inst.gates
