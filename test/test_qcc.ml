(* tests for the frontend, hand optimization and end-to-end compilation *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy

let frontend_cases =
  [ case "flatten loop unrolling" (fun () ->
        let p =
          Qfront.Program.make ~n_qubits:1 ~modules:[]
            [ Qfront.Program.Repeat (3, [ Qfront.Program.Apply (Gate.x 0) ]) ]
        in
        check_int "three x" 3 (Circuit.n_gates (Qfront.Lower.flatten p)));
    case "flatten module call with remap" (fun () ->
        let bell =
          { Qfront.Program.name = "bell";
            arity = 2;
            body =
              [ Qfront.Program.Apply (Gate.h 0); Qfront.Program.Apply (Gate.cnot 0 1) ] }
        in
        let p =
          Qfront.Program.make ~n_qubits:4 ~modules:[ bell ]
            [ Qfront.Program.Call ("bell", [ 2; 3 ]) ]
        in
        let c = Qfront.Lower.flatten p in
        check_bool "remapped" true
          (Circuit.gates c = [ Gate.h 2; Gate.cnot 2 3 ]));
    case "nested modules" (fun () ->
        let inner =
          { Qfront.Program.name = "inner"; arity = 1;
            body = [ Qfront.Program.Apply (Gate.x 0) ] }
        in
        let outer =
          { Qfront.Program.name = "outer"; arity = 2;
            body =
              [ Qfront.Program.Call ("inner", [ 1 ]);
                Qfront.Program.Apply (Gate.cnot 0 1) ] }
        in
        let p =
          Qfront.Program.make ~n_qubits:3 ~modules:[ inner; outer ]
            [ Qfront.Program.Call ("outer", [ 0; 2 ]) ]
        in
        check_bool "flattened" true
          (Circuit.gates (Qfront.Lower.flatten p) = [ Gate.x 2; Gate.cnot 0 2 ]));
    case "unknown module raises" (fun () ->
        let p =
          Qfront.Program.make ~n_qubits:1 ~modules:[]
            [ Qfront.Program.Call ("ghost", [ 0 ]) ]
        in
        check_bool "raises" true
          (try ignore (Qfront.Lower.flatten p); false
           with Qfront.Lower.Lowering_error _ -> true));
    case "arity mismatch raises" (fun () ->
        let m =
          { Qfront.Program.name = "m"; arity = 2;
            body = [ Qfront.Program.Apply (Gate.cnot 0 1) ] }
        in
        let p =
          Qfront.Program.make ~n_qubits:2 ~modules:[ m ]
            [ Qfront.Program.Call ("m", [ 0 ]) ]
        in
        check_bool "raises" true
          (try ignore (Qfront.Lower.flatten p); false
           with Qfront.Lower.Lowering_error _ -> true));
    case "recursion guard" (fun () ->
        let m =
          { Qfront.Program.name = "loop"; arity = 1;
            body = [ Qfront.Program.Call ("loop", [ 0 ]) ] }
        in
        let p =
          Qfront.Program.make ~n_qubits:1 ~modules:[ m ]
            [ Qfront.Program.Call ("loop", [ 0 ]) ]
        in
        check_bool "raises" true
          (try ignore (Qfront.Lower.flatten p); false
           with Qfront.Lower.Lowering_error _ -> true)) ]

let handopt_semantics original =
  let optimized = Qcc.Handopt.optimize original in
  Circuit.equal_semantics ~eps:1e-8 original optimized

let handopt_cases =
  [ case "cancels adjacent cnots" (fun () ->
        let c = Circuit.make 2 [ Gate.cnot 0 1; Gate.cnot 0 1 ] in
        check_int "empty" 0 (Circuit.n_gates (Qcc.Handopt.optimize c)));
    case "cancels h pairs across other qubits" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.x 1; Gate.h 0 ] in
        check_int "one x left" 1 (Circuit.n_gates (Qcc.Handopt.optimize c)));
    case "does not cancel across blockers" (fun () ->
        let c = Circuit.make 1 [ Gate.h 0; Gate.x 0; Gate.h 0 ] in
        check_int "kept" 3 (Circuit.n_gates (Qcc.Handopt.optimize c)));
    case "merges rotations" (fun () ->
        let c = Circuit.make 1 [ Gate.rz 0.3 0; Gate.rz 0.4 0 ] in
        match Circuit.gates (Qcc.Handopt.optimize c) with
        | [ { Gate.kind = Gate.Rz a; _ } ] -> check_float ~eps:1e-12 "sum" 0.7 a
        | _ -> Alcotest.fail "expected one rz");
    case "drops zero rotations" (fun () ->
        let c = Circuit.make 1 [ Gate.rx 0.5 0; Gate.rx (-0.5) 0 ] in
        check_int "empty" 0 (Circuit.n_gates (Qcc.Handopt.optimize c)));
    case "fuses cnot-rz-cnot" (fun () ->
        let c = Circuit.make 2 [ Gate.cnot 0 1; Gate.rz 0.9 1; Gate.cnot 0 1 ] in
        match Circuit.gates (Qcc.Handopt.optimize c) with
        | [ { Gate.kind = Gate.Rzz a; _ } ] -> check_float ~eps:1e-12 "angle" 0.9 a
        | gs -> Alcotest.failf "expected one rzz, got %d gates" (List.length gs));
    case "fusion blocked by control interference" (fun () ->
        let c =
          Circuit.make 3
            [ Gate.cnot 0 1; Gate.cnot 2 0; Gate.rz 0.9 1; Gate.cnot 0 1 ]
        in
        (* the cnot(2,0) interposes on the control: no fusion *)
        check_bool "no rzz" true
          (List.for_all
             (fun g -> match g.Gate.kind with Gate.Rzz _ -> false | _ -> true)
             (Circuit.gates (Qcc.Handopt.optimize c))));
    case "fuse count on qaoa" (fun () ->
        let c = Qapps.Qaoa.triangle_example () in
        check_int "three fusions" 3 (Qcc.Handopt.fuse_count c));
    case "merges fused rzz with neighbors" (fun () ->
        let c =
          Circuit.make 2
            [ Gate.cnot 0 1; Gate.rz 0.5 1; Gate.cnot 0 1; Gate.cnot 0 1;
              Gate.rz 0.25 1; Gate.cnot 0 1 ]
        in
        match Circuit.gates (Qcc.Handopt.optimize c) with
        | [ { Gate.kind = Gate.Rzz a; _ } ] -> check_float ~eps:1e-12 "merged" 0.75 a
        | gs -> Alcotest.failf "expected one rzz, got %d" (List.length gs));
    qcheck ~count:20 "handopt preserves semantics" QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 3 20 in
        handopt_semantics (Circuit.make 3 gates));
    case "handopt preserves qaoa semantics" (fun () ->
        check_bool "triangle" true (handopt_semantics (Qapps.Qaoa.triangle_example ()))) ]

let line3 =
  { Compiler.default_config with Compiler.topology = Some (Qmap.Topology.line 3) }

let compiler_cases =
  [ case "all strategies beat or match nothing-worse-than-2x" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        let results = Compiler.compile_all ~config:line3 circuit in
        let isa = List.assoc Strategy.Isa results in
        List.iter
          (fun (s, r) ->
            check_bool
              (Printf.sprintf "%s sane" (Strategy.to_string s))
              true
              (r.Compiler.latency > 0.
               && r.Compiler.latency < 1.2 *. isa.Compiler.latency))
          results);
    case "cls+aggregation wins on the triangle" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        let results = Compiler.compile_all ~config:line3 circuit in
        let isa = List.assoc Strategy.Isa results in
        let agg = List.assoc Strategy.Cls_aggregation results in
        let speedup = Compiler.speedup ~baseline:isa agg in
        (* paper: 2.97x on this example *)
        check_bool "between 2x and 4.5x" true (speedup > 2.0 && speedup < 4.5));
    case "schedules respect the topology" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        List.iter
          (fun strategy ->
            let r = Compiler.compile ~config:line3 ~strategy circuit in
            List.iter
              (fun block ->
                List.iter
                  (fun g ->
                    match Gate.qubits g with
                    | [ a; b ] ->
                      check_bool "adjacent sites" true
                        (Qmap.Topology.connected (Qmap.Topology.line 3) a b)
                    | _ -> ())
                  block)
              (Compiler.blocks r))
          Strategy.all);
    case "schedules have no qubit overlap" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        List.iter
          (fun strategy ->
            let r = Compiler.compile ~config:line3 ~strategy circuit in
            check_bool
              (Strategy.to_string strategy)
              true
              (Qsched.Schedule.no_qubit_overlap r.Compiler.schedule))
          Strategy.all);
    case "width limit respected end to end" (fun () ->
        let circuit = Qapps.Qaoa.circuit (Qapps.Graphs.line 6) in
        let config = { Compiler.default_config with Compiler.width_limit = 3 } in
        let r = Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit in
        List.iter
          (fun block ->
            let support =
              List.sort_uniq compare (List.concat_map Gate.qubits block)
            in
            check_bool "width <= 3" true (List.length support <= 3))
          (Compiler.blocks r));
    case "aggregation latency sane on small ising" (fun () ->
        let circuit = Qapps.Ising.circuit ~steps:1 6 in
        let results = Compiler.compile_all circuit in
        let isa = List.assoc Strategy.Isa results in
        let agg = List.assoc Strategy.Cls_aggregation results in
        check_bool "strictly better" true (agg.Compiler.latency < isa.Compiler.latency));
    case "semantic equivalence of compiled blocks up to placement" (fun () ->
        (* U_sites . P_initial = P_final . U_logical *)
        let circuit = Qapps.Qaoa.triangle_example () in
        List.iter
          (fun topology ->
            let config =
              { Compiler.default_config with Compiler.topology = Some topology }
            in
            let n = Qmap.Topology.n_sites topology in
            List.iter
              (fun strategy ->
                let r = Compiler.compile ~config ~strategy circuit in
                let gates = List.concat (Compiler.blocks r) in
                let u_sites = Circuit.unitary (Circuit.make n gates) in
                let u_logical =
                  Circuit.unitary
                    (Circuit.make n (Circuit.gates circuit))
                in
                let p_init =
                  Qmap.Placement.permutation_unitary ~n_qubits:n
                    r.Compiler.initial_placement
                in
                let p_final =
                  Qmap.Placement.permutation_unitary ~n_qubits:n
                    r.Compiler.final_placement
                in
                check_mat_phase ~eps:1e-8
                  (Strategy.to_string strategy)
                  (Qnum.Cmat.mul p_final u_logical)
                  (Qnum.Cmat.mul u_sites p_init))
              [ Strategy.Isa; Strategy.Cls; Strategy.Aggregation;
                Strategy.Cls_aggregation ])
          [ Qmap.Topology.full 3; Qmap.Topology.line 3 ]);
    case "strategy string roundtrip" (fun () ->
        List.iter
          (fun s ->
            check_bool "roundtrip" true
              (Strategy.of_string (Strategy.to_string s) = s))
          Strategy.all;
        List.iter
          (fun (alias, s) ->
            check_bool ("alias " ^ alias) true (Strategy.of_string alias = s))
          Strategy.aliases;
        Alcotest.check_raises "unknown raises"
          (Invalid_argument
             "Strategy.of_string: unknown \"warp\" (expected isa | cls | \
              aggregation | cls+aggregation | cls+hand)") (fun () ->
            ignore (Strategy.of_string "warp")));
    case "non-finite parameter in a record literal stops at lower"
      (fun () ->
        (* the record literal skips Circuit.make's checks; lowering
           rebuilds through it, so no strategy returns a nan latency *)
        let circuit = { Circuit.n_qubits = 1; gates = [ Gate.rz infinity 0 ] } in
        List.iter
          (fun strategy ->
            match Compiler.compile ~strategy circuit with
            | r ->
              Alcotest.failf "%s: compiled to latency %g"
                (Strategy.to_string strategy) r.Compiler.latency
            | exception Invalid_argument _ -> ())
          Strategy.all);
    case "report geomean" (fun () ->
        check_float ~eps:1e-9 "geomean" 2. (Qcc.Report.geometric_mean [ 1.; 4. ]);
        Alcotest.check_raises "empty raises"
          (Invalid_argument "Report.geometric_mean: empty") (fun () ->
            ignore (Qcc.Report.geometric_mean []))) ]

let integration_cases =
  [ slow_case "uccsd-n4 pipeline matches paper ordering" (fun () ->
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "uccsd-n4") in
        let results = Compiler.compile_all circuit in
        let latency s = (List.assoc s results).Compiler.latency in
        (* paper ordering: cls+agg < hand < cls <= isa for serial encodings *)
        check_bool "agg beats hand" true
          (latency Strategy.Cls_aggregation < latency Strategy.Cls_hand);
        check_bool "hand beats cls" true
          (latency Strategy.Cls_hand < latency Strategy.Cls);
        check_bool "cls no worse than isa (within 5%)" true
          (latency Strategy.Cls <= 1.05 *. latency Strategy.Isa));
    slow_case "verification passes on compiled uccsd-n4" (fun () ->
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "uccsd-n4") in
        let r = Compiler.compile ~strategy:Strategy.Cls_aggregation circuit in
        let rng = Qgraph.Rand.create 11 in
        let report =
          Qsim.Verify.verify_sampled ~samples:6 ~max_pulse_width:0 rng
            Qcontrol.Device.default (Compiler.blocks r)
        in
        check_int "all pass" report.Qsim.Verify.n_checked report.Qsim.Verify.n_passed);
    slow_case "qaoa end to end solves maxcut" (fun () ->
        (* compile a QAOA ring, run the aggregated blocks through the
           simulator and check the cut expectation is preserved *)
        let graph = Qgraph.Graph.of_edges 5 (List.init 5 (fun k -> (k, (k + 1) mod 5))) in
        let circuit = Qapps.Qaoa.circuit ~gamma:0.4 ~beta:1.2 graph in
        let config =
          { Compiler.default_config with
            Compiler.topology = Some (Qmap.Topology.full 5) }
        in
        let r = Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit in
        let compiled = Circuit.make 5 (List.concat (Compiler.blocks r)) in
        let st c = Qsim.State.apply_circuit (Qsim.State.zero 5) c in
        (* measure the compiled state against the graph relabelled onto
           the final sites of each logical vertex *)
        let site_graph =
          Qgraph.Graph.of_edges 5
            (List.map
               (fun (u, v, _) ->
                 ( Qmap.Placement.site_of r.Compiler.final_placement u,
                   Qmap.Placement.site_of r.Compiler.final_placement v ))
               (Qgraph.Graph.edges graph))
        in
        let e_orig = Qapps.Qaoa.cut_expectation graph (Qsim.State.probability (st circuit)) in
        let e_comp =
          Qapps.Qaoa.cut_expectation site_graph (Qsim.State.probability (st compiled))
        in
        check_float ~eps:1e-6 "same expectation" e_orig e_comp;
        check_bool "beats random" true (e_comp > 2.5)) ]

let suites =
  [ ("qfront.lower", frontend_cases);
    ("qcc.handopt", handopt_cases);
    ("qcc.compiler", compiler_cases);
    ("qcc.integration", integration_cases) ]
