open Qnum

let c = Cx.make
let rl x = Cx.of_float x

let m2 a b cc d = Cmat.of_lists [ [ a; b ]; [ cc; d ] ]

let pauli_x = m2 Cx.zero Cx.one Cx.one Cx.zero
let pauli_y = m2 Cx.zero (c 0. (-1.)) (c 0. 1.) Cx.zero
let pauli_z = m2 Cx.one Cx.zero Cx.zero (rl (-1.))

let hadamard =
  let s = 1. /. Float.sqrt 2. in
  m2 (rl s) (rl s) (rl s) (rl (-.s))

let rot_x theta =
  let ct = rl (Float.cos (theta /. 2.)) in
  let st = c 0. (-.Float.sin (theta /. 2.)) in
  m2 ct st st ct

let rot_y theta =
  let ct = Float.cos (theta /. 2.) and st = Float.sin (theta /. 2.) in
  m2 (rl ct) (rl (-.st)) (rl st) (rl ct)

let rot_z theta =
  Cmat.diag [| Cx.cis (-.theta /. 2.); Cx.cis (theta /. 2.) |]

let phase_gate theta = Cmat.diag [| Cx.one; Cx.cis theta |]

let controlled u =
  (* |0⟩⟨0| ⊗ I + |1⟩⟨1| ⊗ u, control as the new most-significant qubit *)
  let d = Cmat.rows u in
  let m = Cmat.identity (2 * d) in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      Cmat.set m (d + i) (d + j) (Cmat.get u i j)
    done
  done;
  m

let cnot = controlled pauli_x
let cz_mat = controlled pauli_z

let swap_mat =
  Cmat.of_real_lists
    [ [ 1.; 0.; 0.; 0. ];
      [ 0.; 0.; 1.; 0. ];
      [ 0.; 1.; 0.; 0. ];
      [ 0.; 0.; 0.; 1. ] ]

let iswap_mat =
  Cmat.of_lists
    [ [ Cx.one; Cx.zero; Cx.zero; Cx.zero ];
      [ Cx.zero; Cx.zero; c 0. 1.; Cx.zero ];
      [ Cx.zero; c 0. 1.; Cx.zero; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.zero; Cx.one ] ]

let sqrt_iswap_mat =
  let s = 1. /. Float.sqrt 2. in
  Cmat.of_lists
    [ [ Cx.one; Cx.zero; Cx.zero; Cx.zero ];
      [ Cx.zero; rl s; c 0. s; Cx.zero ];
      [ Cx.zero; c 0. s; rl s; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.zero; Cx.one ] ]

(* exp(-i θ/2 σ⊗σ) for a Pauli pair whose square is the identity *)
let two_pauli_rotation sigma_pair theta =
  let cos_part = Cmat.scale_real (Float.cos (theta /. 2.)) (Cmat.identity 4) in
  let sin_part = Cmat.scale (c 0. (-.Float.sin (theta /. 2.))) sigma_pair in
  Cmat.add cos_part sin_part

let of_kind = function
  | Gate.I -> Cmat.identity 2
  | Gate.X -> pauli_x
  | Gate.Y -> pauli_y
  | Gate.Z -> pauli_z
  | Gate.H -> hadamard
  | Gate.S -> phase_gate (Float.pi /. 2.)
  | Gate.Sdg -> phase_gate (-.Float.pi /. 2.)
  | Gate.T -> phase_gate (Float.pi /. 4.)
  | Gate.Tdg -> phase_gate (-.Float.pi /. 4.)
  | Gate.Rx theta -> rot_x theta
  | Gate.Ry theta -> rot_y theta
  | Gate.Rz theta -> rot_z theta
  | Gate.Phase theta -> phase_gate theta
  | Gate.Cnot -> cnot
  | Gate.Cz -> cz_mat
  | Gate.Cphase theta ->
    Cmat.diag [| Cx.one; Cx.one; Cx.one; Cx.cis theta |]
  | Gate.Swap -> swap_mat
  | Gate.Iswap -> iswap_mat
  | Gate.Sqrt_iswap -> sqrt_iswap_mat
  | Gate.Rxx theta -> two_pauli_rotation (Cmat.kron pauli_x pauli_x) theta
  | Gate.Ryy theta -> two_pauli_rotation (Cmat.kron pauli_y pauli_y) theta
  | Gate.Rzz theta -> two_pauli_rotation (Cmat.kron pauli_z pauli_z) theta
  | Gate.Ccx -> controlled cnot

let of_gate ~n_qubits g =
  Cmat.embed ~n_qubits ~targets:(Gate.qubits g) (of_kind g.Gate.kind)

let of_gates ~n_qubits gates =
  List.fold_left
    (fun acc g ->
      Cmat.mul_embedded ~n_qubits ~targets:(Gate.qubits g)
        (of_kind g.Gate.kind) acc)
    (Cmat.identity (1 lsl n_qubits))
    gates

let equal_up_to_global_phase ?eps a b = Cmat.equal_up_to_phase ?eps a b

let apply_gates ~n_qubits gates ~re ~im =
  List.iter
    (fun (g : Gate.t) ->
      Cmat.apply_embedded ~n_qubits ~targets:(Gate.qubits g)
        (of_kind g.Gate.kind) ~re ~im)
    gates

let state_of_gates ~n_qubits gates =
  let dim = 1 lsl n_qubits in
  let re = Array.make dim 0. and im = Array.make dim 0. in
  re.(0) <- 1.;
  apply_gates ~n_qubits gates ~re ~im;
  Array.init dim (fun i -> Cx.make re.(i) im.(i))

let on_support gates =
  if gates = [] then invalid_arg "Unitary.on_support: empty gate list";
  let support =
    List.sort_uniq compare (List.concat_map Gate.qubits gates)
  in
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  let relabelled =
    List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gates
  in
  (support, of_gates ~n_qubits:(List.length support) relabelled)
