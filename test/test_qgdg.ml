(* tests for the gate dependence graph, commutation and diagonal blocks *)

open Qgdg
open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit

let unit_latency _ = 1.0
let sum_latency gates = float_of_int (List.length gates)

let zz a b = [ Gate.cnot a b; Gate.rz 5.67 b; Gate.cnot a b ]

let oracle_insts (a : Inst.t) (b : Inst.t) =
  Oracle.blocks a.Inst.gates b.Inst.gates

let algebraic_agrees a b =
  let s gs = fst (Oracle.of_gates gs) in
  match Oracle.algebraic_blocks ~sa:(s a) ~sb:(s b) a b with
  | Some r -> r = Commute.blocks_reference a b
  | None -> true

(* generators for the algebraic commutation fast paths: Clifford blocks
   exercise the tableau route, CNOT+Rz blocks the phase-polynomial route *)
let random_clifford_gates rng n depth =
  List.init depth (fun _ ->
      let q = Qgraph.Rand.int rng n in
      let other () = (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
      match Qgraph.Rand.int rng 8 with
      | 0 -> Gate.h q
      | 1 -> Gate.s q
      | 2 -> Gate.sdg q
      | 3 -> Gate.x q
      | 4 -> Gate.z q
      | 5 -> Gate.cnot q (other ())
      | 6 -> Gate.cz q (other ())
      | _ -> Gate.swap q (other ()))

let random_cnot_rz_gates rng n depth =
  List.init depth (fun _ ->
      let q = Qgraph.Rand.int rng n in
      if Qgraph.Rand.bool rng then Gate.rz (Qgraph.Rand.float rng 6.28) q
      else Gate.cnot q ((q + 1 + Qgraph.Rand.int rng (n - 1)) mod n))

(* the unconditional entrywise decision the refute-first dense route must
   reproduce: both own-support unitaries, then the embedded compare *)
let full_dense ~n_qubits a b =
  let targets_a, ua = Oracle.unitary_on_own a in
  let targets_b, ub = Oracle.unitary_on_own b in
  Qnum.Cmat.commute_embedded ~eps:1e-9 ~n_qubits ~targets_a ua ~targets_b ub

let dagger gs = List.rev_map Gate.adjoint gs

(* a random diagonal layer on 0..n-1 *)
let random_diagonal rng n =
  List.init (1 + Qgraph.Rand.int rng 3) (fun _ ->
      let q = Qgraph.Rand.int rng n in
      let theta = Qgraph.Rand.float rng 6.28 in
      if n >= 2 && Qgraph.Rand.bool rng then
        Gate.rzz theta q ((q + 1 + Qgraph.Rand.int rng (n - 1)) mod n)
      else Gate.rz theta q)

(* U·D1·U† and U·D2·R·U† for a random U on 0..n-1: the pair commutes
   exactly when R is empty, and its commutator is of order [delta] when
   R = Rx(delta) *)
let conjugated_pair rng ?delta n =
  let u = random_unitary_gates rng n (2 + Qgraph.Rand.int rng 6) in
  let tail =
    match delta with
    | None -> []
    | Some d -> [ Gate.rx d (Qgraph.Rand.int rng n) ]
  in
  ( u @ random_diagonal rng n @ dagger u,
    u @ random_diagonal rng n @ tail @ dagger u )

let qaoa_triangle () =
  Gdg.of_circuit ~latency:unit_latency (Qapps.Qaoa.triangle_example ())

let inst_cases =
  [ case "make computes support" (fun () ->
        let i = Inst.make ~id:0 ~latency:1.0 [ Gate.cnot 3 1; Gate.h 3 ] in
        Alcotest.(check (list int)) "sorted support" [ 1; 3 ] i.Inst.qubits;
        check_int "width" 2 (Inst.width i));
    case "empty raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Inst.make: empty gate list")
          (fun () -> ignore (Inst.make ~id:0 ~latency:1.0 [])));
    case "merge keeps order" (fun () ->
        let a = Inst.of_gate ~id:0 ~latency:1. (Gate.h 0) in
        let b = Inst.of_gate ~id:1 ~latency:1. (Gate.cnot 0 1) in
        let m = Inst.merge ~id:2 ~latency:2. a b in
        check_bool "h first" true (Gate.equal (Gate.h 0) (List.hd m.Inst.gates));
        check_int "two members" 2 (List.length m.Inst.gates));
    case "unitary on support" (fun () ->
        let i = Inst.make ~id:0 ~latency:1.0 (zz 4 2) in
        let support, u = Inst.unitary_on_support i in
        Alcotest.(check (list int)) "support" [ 2; 4 ] support;
        check_bool "diagonal" true (Qnum.Cmat.is_diagonal ~eps:1e-9 u)) ]

let commute_cases =
  [ case "disjoint gates commute" (fun () ->
        check_bool "h0 vs h1" true (Oracle.blocks [ Gate.h 0 ] [ Gate.h 1 ]));
    case "diagonal gates commute" (fun () ->
        check_bool "rz vs cz" true
          (Oracle.blocks [ Gate.rz 0.3 0 ] [ Gate.cz 0 1 ]);
        check_bool "rzz vs rzz shared" true
          (Oracle.blocks [ Gate.rzz 0.5 0 1 ] [ Gate.rzz 0.7 1 2 ]));
    case "table 2: control commutes with rz" (fun () ->
        check_bool "rz on control" true
          (Oracle.blocks [ Gate.rz 0.4 0 ] [ Gate.cnot 0 1 ]);
        check_bool "rz on target" false
          (Oracle.blocks [ Gate.rz 0.4 1 ] [ Gate.cnot 0 1 ]));
    case "table 2: cnots with shared control" (fun () ->
        check_bool "shared control" true
          (Oracle.blocks [ Gate.cnot 0 1 ] [ Gate.cnot 0 2 ]);
        check_bool "shared target" true
          (Oracle.blocks [ Gate.cnot 0 2 ] [ Gate.cnot 1 2 ]);
        check_bool "control-target clash" false
          (Oracle.blocks [ Gate.cnot 0 1 ] [ Gate.cnot 1 2 ]));
    case "x and rx commute" (fun () ->
        check_bool "same axis" true
          (Oracle.blocks [ Gate.x 0 ] [ Gate.rx 1.1 0 ]));
    case "h and x do not commute" (fun () ->
        check_bool "h x" false (Oracle.blocks [ Gate.h 0 ] [ Gate.x 0 ]));
    case "blocks: zz structures commute" (fun () ->
        check_bool "zz 01 vs zz 12" true (Oracle.blocks (zz 0 1) (zz 1 2)));
    case "blocks: cnot chains do not" (fun () ->
        check_bool "cnot vs zz on target" false
          (Oracle.blocks [ Gate.cnot 0 1 ] (zz 1 2) |> fun r ->
           (* cnot(0,1) vs diagonal zz(1,2): cnot's target is in zz support *)
           r));
    case "is_diagonal_block" (fun () ->
        check_bool "zz block" true (Commute.is_diagonal_block (zz 0 1));
        check_bool "with stray h" false
          (Commute.is_diagonal_block (zz 0 1 @ [ Gate.h 0 ]));
        check_bool "empty" true (Commute.is_diagonal_block []));
    qcheck ~count:40 "commute agrees with dense check" QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 3 2 in
        match gates with
        | [ a; b ] ->
          let sup = List.sort_uniq compare (Gate.qubits a @ Gate.qubits b) in
          let relabel = List.mapi (fun k q -> (q, k)) sup in
          let f q = List.assoc q relabel in
          let n = List.length sup in
          let ua = Qgate.Unitary.of_gates ~n_qubits:n [ Gate.map_qubits f a ] in
          let ub = Qgate.Unitary.of_gates ~n_qubits:n [ Gate.map_qubits f b ] in
          Oracle.blocks [ a ] [ b ] = Qnum.Cmat.commute ~eps:1e-9 ua ub
        | _ -> true);
    (* the dispatching oracle (tableau / phase-polynomial fast paths plus
       the embedded dense fallback) against the one-shot dense check, on
       blocks whose joint support stays within the 8-qubit check width *)
    qcheck ~count:25 "blocks agrees with dense on random Clifford blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 7 in
        let a = random_clifford_gates rng n 5 in
        let b = random_clifford_gates rng n 5 in
        Oracle.blocks a b = Commute.dense_commute a b);
    qcheck ~count:25 "blocks agrees with dense on CNOT+Rz blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 7 in
        let a = random_cnot_rz_gates rng n 6 in
        let b = random_cnot_rz_gates rng n 6 in
        Oracle.blocks a b = Commute.dense_commute a b);
    (* the refute-first probe inside [dense_on] may only ever answer
       false where the entrywise check does: pin its decision against
       the unconditional check on general blocks of width 1–8 (mostly
       non-commuting, so the probe settles them), on exactly commuting
       conjugated pairs, and on pairs whose commutator is swept across
       the 1e-9 tolerance *)
    qcheck ~count:40 "dense_on matches the full check on general blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 1 + Qgraph.Rand.int rng 8 in
        let a = random_unitary_gates rng n (1 + Qgraph.Rand.int rng 8) in
        let b = random_unitary_gates rng n (1 + Qgraph.Rand.int rng 8) in
        Oracle.dense_on ~n_qubits:n a b = full_dense ~n_qubits:n a b);
    qcheck ~count:20 "dense_on matches the full check on commuting pairs"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 1 + Qgraph.Rand.int rng 8 in
        let a, b = conjugated_pair rng n in
        let r = Oracle.dense_on ~n_qubits:n a b in
        r && r = full_dense ~n_qubits:n a b);
    qcheck ~count:45 "dense_on matches the full check across eps"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 1 + Qgraph.Rand.int rng 8 in
        let delta = List.nth [ 1e-7; 1e-9; 1e-11 ] (seed mod 3) in
        let a, b = conjugated_pair rng ~delta n in
        Oracle.dense_on ~n_qubits:n a b = full_dense ~n_qubits:n a b);
    case "dense_on: the probe settles non-commuting pairs" (fun () ->
        Oracle.reset_memos ();
        let m = Qobs.Metrics.create () in
        let pairs =
          [ ([ Gate.h 0 ], [ Gate.x 0 ]);
            ([ Gate.cnot 0 1; Gate.rx 0.4 1 ], [ Gate.h 1; Gate.cnot 1 2 ]);
            (zz 0 1 @ [ Gate.h 1 ], zz 1 2 @ [ Gate.ry 1.3 2 ]) ]
        in
        Qobs.Metrics.with_ambient m (fun () ->
            List.iter
              (fun (a, b) ->
                check_bool "non-commuting" false (Oracle.dense_on ~n_qubits:3 a b))
              pairs;
            check_bool "commuting" true
              (Oracle.dense_on ~n_qubits:2 (zz 0 1) [ Gate.rz 0.3 1 ]));
        check_int "refuted" 3 (Qobs.Metrics.counter_value m "commute.dense.refuted");
        (* only the unrefuted query builds its two unitaries *)
        check_int "builds" 2
          (Qobs.Metrics.counter_value m "commute.dense.builds"));
    case "dense_on: a nan residual never refutes" (fun () ->
        let a = [ Gate.rz infinity 0; Gate.h 0 ] and b = [ Gate.x 0 ] in
        let m = Qobs.Metrics.create () in
        let r =
          Qobs.Metrics.with_ambient m (fun () -> Oracle.dense_on ~n_qubits:1 a b)
        in
        check_bool "same as the full check" (full_dense ~n_qubits:1 a b) r;
        check_int "refuted" 0 (Qobs.Metrics.counter_value m "commute.dense.refuted"));
    case "blocks: anti-commuting Paulis rejected" (fun () ->
        check_bool "x vs z" false (Oracle.blocks [ Gate.x 0 ] [ Gate.z 0 ]);
        check_bool "x vs y" false (Oracle.blocks [ Gate.x 0 ] [ Gate.y 0 ]);
        check_bool "h vs h" true (Oracle.blocks [ Gate.h 0 ] [ Gate.h 0 ]));
    (* the oracle dispatcher against the retained pre-oracle decision
       chain: memoization, summary shortcuts and route dispatch must not
       change a single verdict *)
    qcheck ~count:25 "blocks matches blocks_reference on Clifford blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 5 in
        let a = random_clifford_gates rng n 5 in
        let b = random_clifford_gates rng n 5 in
        Oracle.blocks a b = Commute.blocks_reference a b);
    qcheck ~count:25 "blocks matches blocks_reference on CNOT+Rz blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 5 in
        let a = random_cnot_rz_gates rng n 6 in
        let b = random_cnot_rz_gates rng n 6 in
        Oracle.blocks a b = Commute.blocks_reference a b);
    (* the lint's algebraic-only query may abstain, but whenever it
       decides it must agree with the reference chain *)
    qcheck ~count:25
      "algebraic_blocks agrees with blocks_reference on Clifford blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 6 in
        let a = random_clifford_gates rng n 5 in
        let b = random_clifford_gates rng n 5 in
        algebraic_agrees a b);
    qcheck ~count:25
      "algebraic_blocks agrees with blocks_reference on CNOT+Rz blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 6 in
        let a = random_cnot_rz_gates rng n 6 in
        let b = random_cnot_rz_gates rng n 6 in
        algebraic_agrees a b) ]

let gdg_cases =
  [ case "of_circuit sizes" (fun () ->
        let g = qaoa_triangle () in
        check_int "one node per gate" 15 (Gdg.size g);
        check_int "qubits" 3 (Gdg.n_qubits g));
    case "chains in program order" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let chain0 = List.map (fun i -> i.Inst.id) (Gdg.chain g 0) in
        Alcotest.(check (list int)) "qubit 0" [ 0; 1 ] chain0;
        let chain1 = List.map (fun i -> i.Inst.id) (Gdg.chain g 1) in
        Alcotest.(check (list int)) "qubit 1" [ 1; 2 ] chain1);
    case "parents and children" (fun () ->
        let c = Circuit.make 3 [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        check_int "cnot01 has one parent" 1 (List.length (Gdg.parents g 1));
        check_int "h has no parents" 0 (List.length (Gdg.parents g 0));
        check_int "cnot01 has one child" 1 (List.length (Gdg.children g 1)));
    case "asap makespan unit latencies" (fun () ->
        let c = Circuit.make 3 [ Gate.h 0; Gate.h 1; Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        check_float "depth 3" 3. (Gdg.makespan g));
    case "asap respects latencies" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1 ] in
        let g = Gdg.of_circuit ~latency:(fun gs ->
            if List.exists (fun x -> Gate.arity x = 2) gs then 10. else 2.) c in
        check_float "2 + 10" 12. (Gdg.makespan g));
    case "merge combines and keeps acyclicity" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let merged = Gdg.merge g ~latency:2.0 0 1 in
        check_int "size shrinks" 2 (Gdg.size g);
        check_int "two members" 2 (List.length merged.Inst.gates);
        Gdg.validate g);
    case "merge cycle rollback" (fun () ->
        (* A(0,1) ; B(1,2) ; C(0,2): merging A with C around B creates a
           cycle through B and must be rejected, leaving the graph valid *)
        let c = Circuit.make 3 [ Gate.cnot 0 1; Gate.cnot 1 2; Gate.cnot 0 2 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        check_bool "raises" true
          (try
             ignore (Gdg.merge g ~latency:2.0 0 2);
             false
           with Invalid_argument _ -> true);
        Gdg.validate g;
        check_int "unchanged" 3 (Gdg.size g));
    case "merge self raises" (fun () ->
        let g = qaoa_triangle () in
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.merge: cannot merge a node with itself")
          (fun () -> ignore (Gdg.merge g ~latency:1.0 2 2)));
    case "all_gates preserves count" (fun () ->
        let g = qaoa_triangle () in
        check_int "15 gates" 15 (List.length (Gdg.all_gates g)));
    case "set_latency" (fun () ->
        let g = qaoa_triangle () in
        Gdg.set_latency g 0 42.0;
        check_float "updated" 42.0 (Gdg.find g 0).Inst.latency);
    case "neighbor tables match pred_on" (fun () ->
        let g = qaoa_triangle () in
        let pred, succ = Gdg.neighbor_tables g in
        List.iter
          (fun (i : Inst.t) ->
            List.iter
              (fun q ->
                let via_table = Hashtbl.find_opt pred (i.Inst.id, q) in
                let direct =
                  Option.map (fun (p : Inst.t) -> p.Inst.id)
                    (Gdg.pred_on g i.Inst.id ~qubit:q)
                in
                check_bool "pred agrees" true (via_table = direct);
                let via_table = Hashtbl.find_opt succ (i.Inst.id, q) in
                let direct =
                  Option.map (fun (s : Inst.t) -> s.Inst.id)
                    (Gdg.succ_on g i.Inst.id ~qubit:q)
                in
                check_bool "succ agrees" true (via_table = direct))
              i.Inst.qubits)
          (Gdg.insts g)) ]

let comm_group_cases =
  [ case "cnot-rz-cnot groups on control vs target" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        (* the two CNOTs share a group on the control qubit... *)
        check_bool "same group on control" true (Comm_group.same_group groups ~qubit:0 0 2);
        (* ...but not on the target, where the Rz separates them *)
        check_bool "split on target" false (Comm_group.same_group groups ~qubit:1 0 2));
    case "group count on serial chain" (fun () ->
        let c = Circuit.make 1 [ Gate.h 0; Gate.x 0; Gate.h 0 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        check_int "three singleton groups" 3 (List.length (Comm_group.groups_on groups 0)));
    case "commuting run forms one group" (fun () ->
        let c = Circuit.make 3 [ Gate.rzz 0.1 0 1; Gate.rzz 0.2 1 2; Gate.rz 0.3 1 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        check_int "one group on qubit 1" 1 (List.length (Comm_group.groups_on groups 1)));
    case "reorderable requires all common qubits" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        check_bool "cnots not reorderable" false
          (Comm_group.reorderable groups (Gdg.find g 0) (Gdg.find g 2)));
    case "refresh matches rebuild" (fun () ->
        let g = qaoa_triangle () in
        let a = Comm_group.build g in
        ignore (Gdg.merge g ~latency:3.0 4 5);
        Comm_group.refresh a g
          ~qubits:(List.init (Gdg.n_qubits g) (fun q -> q));
        let b = Comm_group.build g in
        for q = 0 to Gdg.n_qubits g - 1 do
          Alcotest.(check (list (list int)))
            (Printf.sprintf "qubit %d" q)
            (Comm_group.groups_on b q) (Comm_group.groups_on a q)
        done);
    case "oracle build matches reference on every suite circuit" (fun () ->
        List.iter
          (fun (b : Qapps.Suite.benchmark) ->
            let circuit = Qapps.Suite.lowered b in
            let g = Gdg.of_circuit ~latency:sum_latency circuit in
            let oracle = Comm_group.build g in
            let reference = Comm_group.build_reference g in
            for q = 0 to Gdg.n_qubits g - 1 do
              Alcotest.(check (list (list int)))
                (Printf.sprintf "%s qubit %d" b.Qapps.Suite.name q)
                (Comm_group.groups_on reference q)
                (Comm_group.groups_on oracle q)
            done)
          Qapps.Suite.all) ]

let diagonal_cases =
  [ case "contracts cnot-rz-cnot" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let merges = Diagonal.detect_and_contract ~latency:sum_latency g in
        check_bool "merged" true (merges >= 1);
        check_int "single block" 1 (Gdg.size g);
        Gdg.validate g);
    case "contracted block is diagonal" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        ignore (Diagonal.detect_and_contract ~latency:sum_latency g);
        List.iter
          (fun (i : Inst.t) ->
            if List.length i.Inst.gates > 1 then
              check_bool "diagonal" true (Commute.is_diagonal_block i.Inst.gates))
          (Gdg.insts g));
    case "does not contract non-diagonal runs" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let merges = Diagonal.detect_and_contract ~latency:sum_latency g in
        check_int "no merges" 0 merges;
        check_int "unchanged" 3 (Gdg.size g));
    case "respects run gate budget" (fun () ->
        (* a long diagonal chain on one pair: blocks stay <= max_run_gates *)
        let gates = List.concat (List.init 8 (fun _ -> zz 0 1)) in
        let g = Gdg.of_circuit ~latency:unit_latency (Circuit.make 2 gates) in
        ignore (Diagonal.detect_and_contract ~latency:sum_latency g);
        List.iter
          (fun (i : Inst.t) ->
            check_bool "size bounded" true
              (List.length i.Inst.gates <= Diagonal.max_run_gates))
          (Gdg.insts g));
    case "triangle qaoa contracts three blocks" (fun () ->
        let g = qaoa_triangle () in
        let merges = Diagonal.detect_and_contract ~latency:sum_latency g in
        check_int "three zz merges" 3 merges;
        Gdg.validate g);
    case "semantics preserved" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        let g = Gdg.of_circuit ~latency:unit_latency circuit in
        ignore (Diagonal.detect_and_contract ~latency:sum_latency g);
        let after = Circuit.make 3 (Gdg.all_gates g) in
        check_bool "unitary equal" true (Circuit.equal_semantics circuit after));
    (* run growth: the table-backed production bookkeeping against the
       list-based reference, plus the structural invariants every run
       must satisfy *)
    qcheck ~count:30 "grow_run matches reference and its invariants"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 4 in
        let gates = random_unitary_gates rng n (10 + Qgraph.Rand.int rng 30) in
        let g = Gdg.of_circuit ~latency:unit_latency (Circuit.make n gates) in
        List.for_all
          (fun (i : Inst.t) ->
            let run = Diagonal.grow_run g i.Inst.id in
            let reference = Diagonal.grow_run_reference g i.Inst.id in
            let support =
              List.sort_uniq compare
                (List.concat_map
                   (fun id -> (Gdg.find g id).Inst.qubits)
                   run)
            in
            let gate_count =
              List.fold_left
                (fun acc id ->
                  acc + List.length (Gdg.find g id).Inst.gates)
                0 run
            in
            run = reference
            && List.hd run = i.Inst.id
            && List.length support <= 2
            && gate_count <= Diagonal.max_run_gates)
          (Gdg.insts g));
    case "oracle detect matches reference on every suite circuit" (fun () ->
        let shape g =
          List.map
            (fun (i : Inst.t) -> (i.Inst.id, i.Inst.qubits, i.Inst.gates))
            (Gdg.insts g)
        in
        List.iter
          (fun (b : Qapps.Suite.benchmark) ->
            let circuit = Qapps.Suite.lowered b in
            let g_new = Gdg.of_circuit ~latency:sum_latency circuit in
            let g_ref = Gdg.of_circuit ~latency:sum_latency circuit in
            (* the production pass runs under a fresh registry so its
               route counters can be checked to partition its queries *)
            let metrics = Qobs.Metrics.create () in
            let merges_new =
              Qobs.Metrics.with_ambient metrics (fun () ->
                  Diagonal.detect_and_contract ~latency:sum_latency g_new)
            in
            let merges_ref =
              Diagonal.detect_and_contract_reference ~latency:sum_latency g_ref
            in
            let routes =
              List.fold_left
                (fun acc name ->
                  if
                    String.starts_with ~prefix:"detect.route." name
                    && not (Filename.check_suffix name ".ms")
                  then acc + Qobs.Metrics.counter_value metrics name
                  else acc)
                0 (Qobs.Metrics.names metrics)
            in
            let checks = Qobs.Metrics.counter_value metrics "detect.checks" in
            check_bool
              (Printf.sprintf "%s detect queries counted" b.Qapps.Suite.name)
              true (checks > 0);
            check_int
              (Printf.sprintf "%s detect.route.* sums to detect.checks"
                 b.Qapps.Suite.name)
              checks routes;
            check_int
              (Printf.sprintf "%s merges" b.Qapps.Suite.name)
              merges_ref merges_new;
            check_bool
              (Printf.sprintf "%s graphs identical" b.Qapps.Suite.name)
              true
              (shape g_new = shape g_ref);
            Gdg.validate g_new;
            (* the contracted graphs must also schedule identically *)
            check_float
              (Printf.sprintf "%s cls makespan" b.Qapps.Suite.name)
              (Qsched.Cls.makespan g_ref) (Qsched.Cls.makespan g_new))
          Qapps.Suite.all) ]

(* ---- the shared incremental schedule view ---- *)

(* A GDG for the view pins: a random circuit or a window of a suite
   circuit, with latencies drawn from a small set that includes 0 so
   zero-latency ties occur. *)
let view_gdg rng =
  let latencies = [| 0.; 0.5; 1.; 2.5 |] in
  let latency _ = latencies.(Qgraph.Rand.int rng 4) in
  let circuit =
    if Qgraph.Rand.bool rng then
      let n = 2 + Qgraph.Rand.int rng 4 in
      Circuit.make n (random_unitary_gates rng n (10 + Qgraph.Rand.int rng 40))
    else
      let names = [| "maxcut-line"; "uccsd-n4"; "sqrt-n3"; "ising-n30" |] in
      let name = names.(Qgraph.Rand.int rng 4) in
      let c = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let k = 40 + Qgraph.Rand.int rng 80 in
      Circuit.make (Circuit.n_qubits c)
        (List.filteri (fun i _ -> i < k) (Circuit.gates c))
  in
  (Gdg.of_circuit ~latency circuit, latency)

(* One random merge attempt: a random node with, mostly, its chain
   successor on one of its qubits, otherwise any other node. Cyclic
   merges are refused by Gdg.merge and skipped. *)
let random_merge rng g ~merge =
  let ids = List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g) in
  let n = List.length ids in
  if n >= 2 then begin
    let a = List.nth ids (Qgraph.Rand.int rng n) in
    let ia = Gdg.find g a in
    let qs = ia.Inst.qubits in
    let q = List.nth qs (Qgraph.Rand.int rng (List.length qs)) in
    let b =
      match Gdg.succ_on g a ~qubit:q with
      | Some s when Qgraph.Rand.int rng 4 > 0 -> s.Inst.id
      | _ -> List.nth ids (Qgraph.Rand.int rng n)
    in
    if a <> b then merge a b
  end

let bits = Int64.bits_of_float

let view_matches_build (v : Sched_view.t) g =
  let fresh = Sched_view.build ~full:true g in
  let nq = fresh.Sched_view.nq in
  let ok = ref (bits v.Sched_view.makespan = bits fresh.Sched_view.makespan) in
  for id = 0 to Gdg.next_id g - 1 do
    for q = 0 to nq - 1 do
      let k = (id * nq) + q in
      ok :=
        !ok
        && v.Sched_view.pred.(k) = fresh.Sched_view.pred.(k)
        && v.Sched_view.succ.(k) = fresh.Sched_view.succ.(k)
        && v.Sched_view.pos.(k) = fresh.Sched_view.pos.(k)
    done;
    ok :=
      !ok
      && bits v.Sched_view.start.(id) = bits fresh.Sched_view.start.(id)
      && bits v.Sched_view.finish.(id) = bits fresh.Sched_view.finish.(id)
      && bits v.Sched_view.tail.(id) = bits fresh.Sched_view.tail.(id)
  done;
  !ok

let sched_view_cases =
  [ qcheck ~count:60 "incremental view equals a fresh build after merges"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let g, latency = view_gdg rng in
        let v = Sched_view.build ~full:true g in
        let ok = ref (view_matches_build v g) in
        for _ = 1 to 5 + Qgraph.Rand.int rng 25 do
          random_merge rng g ~merge:(fun a b ->
              match
                Gdg.merge g ~rank:(Sched_view.rank v) ~latency:(latency ()) a b
              with
              | exception Invalid_argument _ -> ()
              | merged ->
                Sched_view.after_merge v ~a ~b merged;
                (* tails are also brought up after several merges at once *)
                if Qgraph.Rand.int rng 3 > 0 then begin
                  Sched_view.update_tails v;
                  ok := !ok && view_matches_build v g
                end)
        done;
        Sched_view.update_tails v;
        !ok && view_matches_build v g);
    qcheck ~count:60 "windowed group refresh equals the full greedy scan"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let g, latency = view_gdg rng in
        let groups = Comm_group.build ~commute:oracle_insts g in
        let ok = ref true in
        for _ = 1 to 5 + Qgraph.Rand.int rng 25 do
          random_merge rng g ~merge:(fun a b ->
              match Gdg.merge g ~latency:(latency ()) a b with
              | exception Invalid_argument _ -> ()
              | merged ->
                Comm_group.refresh ~commute:oracle_insts groups g
                  ~qubits:merged.Inst.qubits;
                let full = Comm_group.build ~commute:oracle_insts g in
                for q = 0 to Gdg.n_qubits g - 1 do
                  ok :=
                    !ok
                    && Comm_group.groups_on groups q
                       = Comm_group.groups_on full q
                    && List.for_all
                         (fun id ->
                           Comm_group.lookup groups ~qubit:q id
                           = Comm_group.lookup full ~qubit:q id)
                         (Gdg.chain_ids g q)
                done)
        done;
        !ok) ]

let suites =
  [ ("qgdg.inst", inst_cases);
    ("qgdg.commute", commute_cases);
    ("qgdg.gdg", gdg_cases);
    ("qgdg.comm_group", comm_group_cases);
    ("qgdg.diagonal", diagonal_cases);
    ("qgdg.sched_view", sched_view_cases) ]
