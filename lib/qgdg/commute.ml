module Gate = Qgate.Gate

let all_diagonal gs = List.for_all (fun g -> Gate.is_diagonal_kind g.Gate.kind) gs

let is_diagonal_block gs =
  match gs with
  | [] -> true
  | _ when all_diagonal gs -> true
  | _ ->
    let support = List.sort_uniq compare (List.concat_map Gate.qubits gs) in
    List.length support <= Oracle.max_check_width
    &&
    let n_qubits = List.length support in
    (* |x⟩ ↦ e^{iφ(x)}|Ax⊕c⟩ is diagonal iff the affine part is the
       identity, so CNOT+diagonal blocks (CNOT–Rz–CNOT contractions in
       particular) are decided without a dense unitary *)
    (match
       Qdomain.Phase_poly.of_gates ~n_qubits (Oracle.relabel_onto support gs)
     with
    | Some p -> Qdomain.Phase_poly.is_linear_identity p
    | None ->
      let _, u = Qgate.Unitary.on_support gs in
      Qnum.Cmat.is_diagonal ~eps:1e-9 u)

let dense_commute a_gates b_gates =
  let support =
    List.sort_uniq compare
      (List.concat_map Gate.qubits a_gates @ List.concat_map Gate.qubits b_gates)
  in
  List.length support <= Oracle.max_check_width
  && Oracle.dense_on ~n_qubits:(List.length support)
       (Oracle.relabel_onto support a_gates)
       (Oracle.relabel_onto support b_gates)

(* The pre-oracle decision chain, retained memo-free as the reference the
   qcheck suite pins {!Oracle.blocks} against: structural shortcuts,
   support width gate, then the attempt-and-fail algebraic dispatch
   (phase polynomial, then tableau), then the dense comparison. No
   metrics, no decision memo — results must be reproducible
   independently of any cache the oracle keeps (the unitary cache
   underneath [dense_on] is content-addressed and pure, so sharing it is
   sound). *)
let blocks_reference a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | _ ->
    let qa = List.sort_uniq compare (List.concat_map Gate.qubits a) in
    let qb = List.sort_uniq compare (List.concat_map Gate.qubits b) in
    let disjoint = not (List.exists (fun q -> List.mem q qb) qa) in
    if disjoint then true
    else if all_diagonal a && all_diagonal b then true
    else begin
      let support = List.sort_uniq compare (qa @ qb) in
      if List.length support > Oracle.max_check_width then false
      else begin
        let n_qubits = List.length support in
        let a = Oracle.relabel_onto support a
        and b = Oracle.relabel_onto support b in
        match
          ( Qdomain.Phase_poly.of_gates ~n_qubits (a @ b),
            Qdomain.Phase_poly.of_gates ~n_qubits (b @ a) )
        with
        | Some p_ab, Some p_ba -> (
          match Qdomain.Phase_poly.strict_equal ~eps:1e-9 p_ab p_ba with
          | Some r -> r
          | None -> Oracle.dense_on ~n_qubits a b)
        | _ -> (
          match
            ( Qdomain.Tableau.of_gates ~n_qubits (a @ b),
              Qdomain.Tableau.of_gates ~n_qubits (b @ a) )
          with
          | Some t_ab, Some t_ba ->
            if not (Qdomain.Tableau.equal t_ab t_ba) then false
            else begin
              let s_ab = Qgate.Unitary.state_of_gates ~n_qubits (a @ b) in
              let s_ba = Qgate.Unitary.state_of_gates ~n_qubits (b @ a) in
              let ok = ref true in
              Array.iteri
                (fun i z ->
                  if Qnum.Cx.abs (Qnum.Cx.sub z s_ba.(i)) > 1e-6 then
                    ok := false)
                s_ab;
              !ok
            end
          | _ -> Oracle.dense_on ~n_qubits a b)
      end
    end

let insts_reference a b = blocks_reference a.Inst.gates b.Inst.gates
