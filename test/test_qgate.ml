(* tests for the gate layer: gates, unitaries, circuits, decompositions,
   Pauli strings and QASM round-trips *)

open Qgate
open Util

let all_kinds =
  [ Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T;
    Gate.Tdg; Gate.Rx 0.3; Gate.Ry 0.4; Gate.Rz 0.5; Gate.Phase 0.6;
    Gate.Cnot; Gate.Cz; Gate.Cphase 0.7; Gate.Swap; Gate.Iswap;
    Gate.Sqrt_iswap; Gate.Rxx 0.8; Gate.Ryy 0.9; Gate.Rzz 1.0; Gate.Ccx ]

let u2 gates = Unitary.of_gates ~n_qubits:2 gates
let u3 gates = Unitary.of_gates ~n_qubits:3 gates

let gate_cases =
  [ case "arity mismatch raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Gate.make: arity mismatch")
          (fun () -> ignore (Gate.make Gate.Cnot [ 0 ])));
    case "repeated qubit raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Gate.make: repeated qubit")
          (fun () -> ignore (Gate.make Gate.Cnot [ 1; 1 ])));
    case "arity per kind" (fun () ->
        check_int "1q" 1 (Gate.kind_arity Gate.H);
        check_int "2q" 2 (Gate.kind_arity Gate.Iswap);
        check_int "3q" 3 (Gate.kind_arity Gate.Ccx));
    case "adjoint pairs" (fun () ->
        check_bool "S† = Sdg" true (Gate.equal (Gate.sdg 0) (Gate.adjoint (Gate.s 0)));
        check_bool "T† = Tdg" true (Gate.equal (Gate.tdg 0) (Gate.adjoint (Gate.t 0)));
        check_bool "Rx† negates" true
          (Gate.equal (Gate.rx (-0.5) 1) (Gate.adjoint (Gate.rx 0.5 1))));
    case "adjoint of iswap raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Gate.adjoint: iswap family has no in-vocabulary adjoint")
          (fun () -> ignore (Gate.adjoint (Gate.iswap 0 1))));
    case "adjoint is inverse (unitary level)" (fun () ->
        List.iter
          (fun kind ->
            match kind with
            | Gate.Iswap | Gate.Sqrt_iswap -> ()
            | _ ->
              let qs = List.init (Gate.kind_arity kind) (fun k -> k) in
              let g = Gate.make kind qs in
              let n = Gate.kind_arity kind in
              let u = Unitary.of_gates ~n_qubits:n [ g; Gate.adjoint g ] in
              check_mat ~eps:1e-9
                (Printf.sprintf "%s adjoint" (Gate.name g))
                (Qnum.Cmat.identity (1 lsl n))
                u)
          all_kinds);
    case "diagonal kinds are diagonal" (fun () ->
        List.iter
          (fun kind ->
            let d = Gate.is_diagonal_kind kind in
            let m = Unitary.of_kind kind in
            check_bool
              (Printf.sprintf "%s diagonality"
                 (Gate.name (Gate.make kind (List.init (Gate.kind_arity kind) (fun k -> k)))))
              d
              (Qnum.Cmat.is_diagonal ~eps:1e-12 m))
          all_kinds);
    case "symmetric kinds are swap-invariant" (fun () ->
        List.iter
          (fun kind ->
            if Gate.kind_arity kind = 2 then begin
              let m = Unitary.of_kind kind in
              let swapped = Qnum.Cmat.permute_qubits [| 1; 0 |] m in
              check_bool
                (Printf.sprintf "symmetry of %s"
                   (Gate.name (Gate.make kind [ 0; 1 ])))
                (Gate.is_symmetric_kind kind)
                (Qnum.Cmat.equal ~eps:1e-12 m swapped)
            end)
          all_kinds);
    case "map_qubits collapse raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Gate.map_qubits: renaming collapses qubits")
          (fun () -> ignore (Gate.map_qubits (fun _ -> 0) (Gate.cnot 0 1))));
    case "common qubits" (fun () ->
        Alcotest.(check (list int)) "overlap" [ 1 ]
          (Gate.common_qubits (Gate.cnot 0 1) (Gate.cnot 1 2))) ]

let unitary_cases =
  [ qcheck ~count:30 "apply_gates matches the dense unitary on a vector"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 1 + Qgraph.Rand.int rng 5 in
        let gates =
          random_unitary_gates rng n 12
          @ if n >= 3 then [ Gate.ccx 2 0 1; Gate.rxx 0.7 0 2 ] else []
        in
        let dim = 1 lsl n in
        let re = Array.init dim (fun _ -> Qgraph.Rand.float rng 2. -. 1.) in
        let im = Array.init dim (fun _ -> Qgraph.Rand.float rng 2. -. 1.) in
        let u = Unitary.of_gates ~n_qubits:n gates in
        let expected =
          Array.init dim (fun i ->
              let acc = ref Qnum.Cx.zero in
              for j = 0 to dim - 1 do
                acc :=
                  Qnum.Cx.add !acc
                    (Qnum.Cx.mul (Qnum.Cmat.get u i j) (Qnum.Cx.make re.(j) im.(j)))
              done;
              !acc)
        in
        Unitary.apply_gates ~n_qubits:n gates ~re ~im;
        Array.for_all Fun.id
          (Array.mapi
             (fun i z ->
               Qnum.Cx.abs (Qnum.Cx.sub z (Qnum.Cx.make re.(i) im.(i))) < 1e-9)
             expected));
    case "apply_gates propagates non-finite gate entries" (fun () ->
        let re = [| 0.5; 0.5 |] and im = [| 0.; 0. |] in
        Unitary.apply_gates ~n_qubits:1 [ Gate.rz infinity 0 ] ~re ~im;
        check_bool "nan reaches the vector" true
          (Array.exists (fun x -> not (Float.is_finite x)) re));
    case "apply_gates rejects a wrong-length vector" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Cmat.apply_embedded: vector length is not 2^n_qubits")
          (fun () ->
            Unitary.apply_gates ~n_qubits:2 [ Gate.h 0 ] ~re:[| 1.; 0. |]
              ~im:[| 0.; 0. |]));
    case "all gates unitary" (fun () ->
        List.iter
          (fun kind ->
            check_bool "unitary" true
              (Qnum.Cmat.is_unitary ~eps:1e-9 (Unitary.of_kind kind)))
          all_kinds);
    case "cnot truth table" (fun () ->
        let m = Unitary.of_kind Gate.Cnot in
        (* |10> -> |11>, |11> -> |10> *)
        check_bool "10->11" true (Qnum.Cx.equal Qnum.Cx.one (Qnum.Cmat.get m 3 2));
        check_bool "11->10" true (Qnum.Cx.equal Qnum.Cx.one (Qnum.Cmat.get m 2 3));
        check_bool "00->00" true (Qnum.Cx.equal Qnum.Cx.one (Qnum.Cmat.get m 0 0)));
    case "hadamard squares to identity" (fun () ->
        check_mat "H² = I" (Qnum.Cmat.identity 2)
          (Qnum.Cmat.mul Unitary.hadamard Unitary.hadamard));
    case "pauli algebra" (fun () ->
        let x = Unitary.pauli_x and y = Unitary.pauli_y and z = Unitary.pauli_z in
        check_mat ~eps:1e-12 "XY = iZ"
          (Qnum.Cmat.scale Qnum.Cx.i z)
          (Qnum.Cmat.mul x y));
    case "s gate squared is z" (fun () ->
        check_mat_phase "S² = Z" (Unitary.of_kind Gate.Z)
          (u2 [ Gate.s 0; Gate.s 0 ] |> fun _ ->
           Unitary.of_gates ~n_qubits:1 [ Gate.s 0; Gate.s 0 ]));
    case "rz vs phase differ by global phase" (fun () ->
        check_mat_phase "Rz(θ) ~ P(θ)"
          (Unitary.of_kind (Gate.Rz 0.9))
          (Unitary.of_kind (Gate.Phase 0.9)));
    case "sqrt_iswap squares to iswap" (fun () ->
        check_mat ~eps:1e-12 "√iSWAP²"
          (Unitary.of_kind Gate.Iswap)
          (u2 [ Gate.sqrt_iswap 0 1; Gate.sqrt_iswap 0 1 ]));
    case "cnot-rz-cnot equals rzz" (fun () ->
        check_mat ~eps:1e-12 "diagonal block"
          (u2 [ Gate.rzz 5.67 0 1 ])
          (u2 [ Gate.cnot 0 1; Gate.rz 5.67 1; Gate.cnot 0 1 ]));
    case "of_gates composes in time order" (fun () ->
        (* X then H on one qubit: matrix product is H·X *)
        let composed = Unitary.of_gates ~n_qubits:1 [ Gate.x 0; Gate.h 0 ] in
        check_mat ~eps:1e-12 "H*X"
          (Qnum.Cmat.mul Unitary.hadamard Unitary.pauli_x)
          composed);
    case "on_support relabels" (fun () ->
        let support, u = Unitary.on_support [ Gate.cnot 5 2 ] in
        Alcotest.(check (list int)) "support" [ 2; 5 ] support;
        (* qubit 5 is the control but comes second in the sorted support *)
        check_mat "relabelled"
          (Qnum.Cmat.embed ~n_qubits:2 ~targets:[ 1; 0 ] (Unitary.of_kind Gate.Cnot))
          u);
    case "on_support empty raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Unitary.on_support: empty gate list") (fun () ->
            ignore (Unitary.on_support []))) ]

let circuit_cases =
  [ case "make validates range" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Circuit: gate cx q1,q5 outside register of 3 qubits")
          (fun () -> ignore (Circuit.make 3 [ Gate.cnot 1 5 ])));
    case "make and append reject non-finite parameters" (fun () ->
        let rejects what f =
          match f () with
          | (_ : Circuit.t) -> Alcotest.failf "%s: accepted" what
          | exception Invalid_argument msg ->
            check_bool (what ^ " names the gate: " ^ msg) true
              (String.starts_with ~prefix:"Circuit: gate rz" msg)
        in
        rejects "make rz nan" (fun () -> Circuit.make 1 [ Gate.rz Float.nan 0 ]);
        rejects "make rz infinity" (fun () ->
            Circuit.make 1 [ Gate.rz infinity 0 ]);
        rejects "append rz neg_infinity" (fun () ->
            Circuit.append (Circuit.empty 1) (Gate.rz neg_infinity 0));
        check_int "finite rz accepted" 1
          (Circuit.n_gates (Circuit.make 1 [ Gate.rz 1e300 0 ])));
    case "depth of layered circuit" (fun () ->
        let c =
          Circuit.make 4
            [ Gate.h 0; Gate.h 1; Gate.h 2; Gate.h 3; Gate.cnot 0 1; Gate.cnot 2 3 ]
        in
        check_int "depth 2" 2 (Circuit.depth c));
    case "depth serial chain" (fun () ->
        let c = Circuit.make 3 [ Gate.cnot 0 1; Gate.cnot 1 2; Gate.cnot 0 1 ] in
        check_int "depth 3" 3 (Circuit.depth c));
    case "critical path with latencies" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.h 1; Gate.cnot 0 1 ] in
        let latency g = if Gate.arity g = 2 then 10. else 1. in
        check_float "1 + 10" 11. (Circuit.critical_path_time latency c));
    case "two_qubit_count" (fun () ->
        let c = Circuit.make 3 [ Gate.h 0; Gate.cnot 0 1; Gate.swap 1 2; Gate.t 2 ] in
        check_int "count" 2 (Circuit.two_qubit_count c));
    case "interaction graph weights" (fun () ->
        let c = Circuit.make 3 [ Gate.cnot 0 1; Gate.cnot 0 1; Gate.cz 1 2 ] in
        let g = Circuit.interaction_graph c in
        check_float "0-1 weight" 2. (Qgraph.Graph.weight g 0 1);
        check_float "1-2 weight" 1. (Qgraph.Graph.weight g 1 2));
    case "adjoint reverses semantics" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.rz 0.4 1 ] in
        let id = Circuit.concat c (Circuit.adjoint c) in
        check_mat ~eps:1e-9 "c c† = I" (Qnum.Cmat.identity 4) (Circuit.unitary id));
    case "equal_semantics catches difference" (fun () ->
        let a = Circuit.make 2 [ Gate.cnot 0 1 ] in
        let b = Circuit.make 2 [ Gate.cnot 1 0 ] in
        check_bool "different" false (Circuit.equal_semantics a b));
    case "map_qubits relabels" (fun () ->
        let c = Circuit.make 3 [ Gate.cnot 0 1 ] in
        let m = Circuit.map_qubits (fun q -> 2 - q) c in
        check_bool "relabelled" true
          (Gate.equal (Gate.cnot 2 1) (List.hd (Circuit.gates m)))) ]

let decompose_cases =
  [ case "ccx decomposition" (fun () ->
        check_mat_phase "toffoli" (u3 [ Gate.ccx 0 1 2 ]) (u3 (Decompose.ccx 0 1 2)));
    case "swap to cnots" (fun () ->
        check_mat_phase "swap" (u2 [ Gate.swap 0 1 ]) (u2 (Decompose.swap_to_cnots 0 1)));
    case "cz to std" (fun () ->
        check_mat_phase "cz" (u2 [ Gate.cz 0 1 ]) (u2 (Decompose.cz_to_std 0 1)));
    case "cphase to std" (fun () ->
        check_mat_phase "cp" (u2 [ Gate.cphase 1.1 0 1 ]) (u2 (Decompose.cphase_to_std 1.1 0 1)));
    case "rzz to std" (fun () ->
        check_mat_phase "rzz" (u2 [ Gate.rzz 0.7 0 1 ]) (u2 (Decompose.rzz_to_std 0.7 0 1)));
    case "rxx to std" (fun () ->
        check_mat_phase "rxx" (u2 [ Gate.rxx 0.7 0 1 ]) (u2 (Decompose.rxx_to_std 0.7 0 1)));
    case "ryy to std" (fun () ->
        check_mat_phase "ryy" (u2 [ Gate.ryy 0.7 0 1 ]) (u2 (Decompose.ryy_to_std 0.7 0 1)));
    case "iswap via interactions" (fun () ->
        check_mat_phase "iswap" (u2 [ Gate.iswap 0 1 ]) (u2 (Decompose.iswap_to_interactions 0 1)));
    case "cnot via iswap" (fun () ->
        check_mat_phase "cnot" (u2 [ Gate.cnot 0 1 ]) (u2 (Decompose.cnot_via_iswap 0 1)));
    case "to_isa produces only isa kinds" (fun () ->
        let c =
          Circuit.make 4
            [ Gate.ccx 0 1 2; Gate.iswap 2 3; Gate.rzz 0.4 0 3; Gate.cz 1 2;
              Gate.cphase 0.9 0 1; Gate.sqrt_iswap 1 3 ]
        in
        let lowered = Decompose.to_isa c in
        check_bool "all isa" true
          (List.for_all (fun g -> Decompose.isa_kind g.Gate.kind) (Circuit.gates lowered)));
    case "to_isa preserves semantics" (fun () ->
        let c = Circuit.make 3 [ Gate.ccx 0 1 2; Gate.cz 0 2; Gate.rzz 0.8 1 2 ] in
        check_bool "semantics" true (Circuit.equal_semantics ~eps:1e-8 c (Decompose.to_isa c)));
    case "to_isa leaves isa circuits alone" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.swap 0 1 ] in
        check_int "unchanged" 3 (Circuit.n_gates (Decompose.to_isa c))) ]

let pauli_cases =
  [ case "of_string roundtrip" (fun () ->
        let p = Pauli.of_string 1.5 "IXYZ" in
        check_int "qubits" 4 (Pauli.n_qubits p);
        Alcotest.(check string) "print" "1.5*IXYZ" (Pauli.to_string p));
    case "of_string bad char raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Pauli.of_string: bad character q") (fun () ->
            ignore (Pauli.of_string 1.0 "IXq")));
    case "support and weight" (fun () ->
        let p = Pauli.of_string 1.0 "IXIZ" in
        Alcotest.(check (list int)) "support" [ 1; 3 ] (Pauli.support p);
        check_int "weight" 2 (Pauli.weight p));
    case "commutation rules" (fun () ->
        let xx = Pauli.of_string 1.0 "XX" and zz = Pauli.of_string 1.0 "ZZ" in
        let xi = Pauli.of_string 1.0 "XI" and zi = Pauli.of_string 1.0 "ZI" in
        check_bool "XX,ZZ commute" true (Pauli.commutes xx zz);
        check_bool "XI,ZI anticommute" false (Pauli.commutes xi zi));
    case "commutes matches matrices" (fun () ->
        let strings = [ "XY"; "ZI"; "YY"; "IZ"; "XZ" ] in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let pa = Pauli.of_string 1.0 a and pb = Pauli.of_string 1.0 b in
                check_bool
                  (Printf.sprintf "%s vs %s" a b)
                  (Qnum.Cmat.commute ~eps:1e-9 (Pauli.matrix pa) (Pauli.matrix pb))
                  (Pauli.commutes pa pb))
              strings)
          strings);
    case "matrix of ZZ" (fun () ->
        let m = Pauli.matrix (Pauli.of_string 1.0 "ZZ") in
        check_mat "Z⊗Z" (Qnum.Cmat.kron Unitary.pauli_z Unitary.pauli_z) m);
    case "mul_phase XY = iZ per site" (fun () ->
        let x = Pauli.of_string 1.0 "X" and y = Pauli.of_string 1.0 "Y" in
        let phase, prod = Pauli.mul_phase x y in
        check_bool "phase i" true (Qnum.Cx.equal Qnum.Cx.i phase);
        Alcotest.(check string) "Z" "1*Z" (Pauli.to_string prod));
    case "rotation circuit implements exp" (fun () ->
        List.iter
          (fun s ->
            let p = Pauli.of_string 1.0 s in
            let theta = 0.83 in
            let gates = Pauli.rotation_circuit ~theta p in
            let circuit = Circuit.make (Pauli.n_qubits p) gates in
            (* exp(-i θ/2 P) *)
            let h = Qnum.Cmat.scale (Qnum.Cx.make 0. (-.theta /. 2.)) (Pauli.matrix p) in
            check_mat_phase ~eps:1e-8
              (Printf.sprintf "exp rotation %s" s)
              (Qnum.Expm.expm h)
              (Circuit.unitary circuit))
          [ "Z"; "XI"; "ZZ"; "XY"; "IZX"; "YZY" ]);
    case "identity string yields no gates" (fun () ->
        check_int "empty" 0
          (List.length (Pauli.rotation_circuit ~theta:0.5 (Pauli.of_string 1.0 "III")))) ]

let qasm_cases =
  [ case "parse basic program" (fun () ->
        let src =
          "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
           h q[0];\ncx q[0],q[1];\nrz(pi/4) q[2];\nbarrier q;\nmeasure q -> c;\n"
        in
        let c = Qasm.of_string src in
        check_int "qubits" 3 (Circuit.n_qubits c);
        check_int "gates" 3 (Circuit.n_gates c));
    case "angle expressions" (fun () ->
        let c = Qasm.of_string "qreg q[1]; rx(2*pi/4 - 0.5) q[0];" in
        match Circuit.gates c with
        | [ { Gate.kind = Gate.Rx a; _ } ] ->
          check_float ~eps:1e-12 "angle" ((Float.pi /. 2.) -. 0.5) a
        | _ -> Alcotest.fail "expected one rx");
    case "negative and nested parens" (fun () ->
        let c = Qasm.of_string "qreg q[1]; rz(-(1+2)*2) q[0];" in
        match Circuit.gates c with
        | [ { Gate.kind = Gate.Rz a; _ } ] -> check_float "angle" (-6.) a
        | _ -> Alcotest.fail "expected one rz");
    case "comments stripped" (fun () ->
        let c = Qasm.of_string "// header\nqreg q[2]; h q[0]; // trailing\ncx q[0],q[1];" in
        check_int "gates" 2 (Circuit.n_gates c));
    case "unknown gate raises" (fun () ->
        Alcotest.check_raises "raises"
          (Qasm.Parse_error "unsupported statement \"bogus q[0]\"") (fun () ->
            ignore (Qasm.of_string "qreg q[2]; bogus q[0];")));
    case "non-finite angles raise" (fun () ->
        List.iter
          (fun angle ->
            check_bool angle true
              (try
                 ignore
                   (Qasm.of_string
                      (Printf.sprintf "qreg q[1]; rz(%s) q[0];" angle));
                 false
               with Qasm.Parse_error _ -> true))
          [ "1e400"; "-1e400"; "1e300*1e300"; "1/0"; "nan" ]);
    case "non-finite gate-definition argument raises" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Qasm.of_string
                  "gate g(a) x { rz(a*a) x; } qreg q[1]; g(1e200) q[0];");
             false
           with Qasm.Parse_error _ -> true));
    case "unknown register raises" (fun () ->
        check_bool "raises parse error" true
          (try
             ignore (Qasm.of_string "qreg q[2]; h r[0];");
             false
           with Qasm.Parse_error _ -> true));
    case "roundtrip preserves semantics" (fun () ->
        let original =
          Circuit.make 3
            [ Gate.h 0; Gate.cnot 0 1; Gate.rz 0.123456789 2; Gate.swap 1 2;
              Gate.cphase 2.5 0 2; Gate.ccx 0 1 2; Gate.rzz (-0.7) 0 1 ]
        in
        let parsed = Qasm.of_string (Qasm.to_string original) in
        check_int "gate count" (Circuit.n_gates original) (Circuit.n_gates parsed);
        check_bool "same semantics" true (Circuit.equal_semantics ~eps:1e-8 original parsed));
    case "user gate definitions expand" (fun () ->
        let src =
          "OPENQASM 2.0;\nqreg q[3];\n\
           gate bell a, b { h a; cx a,b; }\n\
           bell q[0], q[1];\nbell q[1], q[2];\n"
        in
        let c = Qasm.of_string src in
        check_int "four gates" 4 (Circuit.n_gates c);
        check_bool "first is h q0" true
          (Gate.equal (Gate.h 0) (List.hd (Circuit.gates c))));
    case "parameterized gate definitions" (fun () ->
        let src =
          "qreg q[2];\n\
           gate zz(theta) a, b { cx a,b; rz(theta/2) b; cx a,b; }\n\
           zz(pi) q[0], q[1];\n"
        in
        let c = Qasm.of_string src in
        check_int "three gates" 3 (Circuit.n_gates c);
        (match Circuit.gates c with
         | [ _; { Gate.kind = Gate.Rz a; _ }; _ ] ->
           check_float ~eps:1e-12 "substituted" (Float.pi /. 2.) a
         | _ -> Alcotest.fail "unexpected expansion"));
    case "nested gate definitions" (fun () ->
        let src =
          "qreg q[2];\n\
           gate flip a { x a; }\n\
           gate twice a, b { flip a; flip b; flip a; }\n\
           twice q[1], q[0];\n"
        in
        let c = Qasm.of_string src in
        check_int "three x" 3 (Circuit.n_gates c);
        check_bool "maps formals" true
          (Gate.equal (Gate.x 1) (List.hd (Circuit.gates c))));
    case "unknown parameter in body raises" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Qasm.of_string
                  "qreg q[1]; gate g a { rz(oops) a; } g q[0];");
             false
           with Qasm.Parse_error _ -> true));
    case "roundtrip of generated benchmark" (fun () ->
        let c = Qapps.Qaoa.triangle_example () in
        let parsed = Qasm.of_string (Qasm.to_string c) in
        check_bool "semantics" true (Circuit.equal_semantics ~eps:1e-8 c parsed)) ]

let suites =
  [ ("qgate.gate", gate_cases);
    ("qgate.unitary", unitary_cases);
    ("qgate.circuit", circuit_cases);
    ("qgate.decompose", decompose_cases);
    ("qgate.pauli", pauli_cases);
    ("qgate.qasm", qasm_cases) ]
