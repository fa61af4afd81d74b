(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 5 for the experiment index) plus
   Bechamel microbenchmarks of the compiler passes.

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe fig9 fig10  -- selected experiments *)

module Gate = Qgate.Gate
module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy

let device = Qcontrol.Device.default

let header title = Printf.printf "\n==== %s ====\n%!" title
let gate_time g = Qcontrol.Latency_model.gate_time device g
let block_time gs = Qcontrol.Latency_model.block_time device gs

(* ------------------------------------------------------------------ *)
(* Table 1: instruction execution times for the QAOA example           *)

let gamma = Qapps.Qaoa.default_gamma
let beta = Qapps.Qaoa.default_beta

let table1 () =
  header "Table 1: instruction pulse times (ns) for the Fig. 4 QAOA circuit";
  let rows_gates =
    [ ("CNOT", gate_time (Gate.cnot 0 1), 47.1);
      ("SWAP", gate_time (Gate.swap 0 1), 50.1);
      ("H", gate_time (Gate.h 0), 13.7);
      (Printf.sprintf "Rz(%.2f)" gamma, gate_time (Gate.rz gamma 0), 9.8);
      (Printf.sprintf "Rx(%.2f)" beta, gate_time (Gate.rx beta 0), 6.1) ]
  in
  let zz a b = [ Gate.cnot a b; Gate.rz gamma b; Gate.cnot a b ] in
  let rows_aggregates =
    [ ("G1 = H,H + CNOT-Rz-CNOT",
       block_time ([ Gate.h 0; Gate.h 1 ] @ zz 0 1), 54.9);
      ("G2 = H", block_time [ Gate.h 0 ], 13.7);
      ("G3 = SWAP + CNOT-Rz-CNOT",
       block_time (Gate.swap 1 2 :: zz 0 1), 42.0);
      ("G4 = CNOT-Rz-CNOT", block_time (zz 0 1), 31.4);
      ("G5 = Rx", block_time [ Gate.rx beta 0 ], 6.1) ]
  in
  Printf.printf "%-28s %10s %10s\n" "instruction" "model" "paper";
  List.iter
    (fun (name, ours, paper) ->
      Printf.printf "%-28s %10.1f %10.1f\n" name ours paper)
    (rows_gates @ rows_aggregates);
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Fig. 4: the 3-qubit QAOA example end to end                         *)

let fig4 () =
  header "Fig. 4: QAOA triangle on a 3-qubit line";
  let circuit = Qapps.Qaoa.triangle_example () in
  let config =
    { Compiler.default_config with
      Compiler.topology = Some (Qmap.Topology.line 3) }
  in
  let results = Compiler.compile_all ~config circuit in
  List.iter
    (fun (s, r) ->
      Printf.printf "  %-16s %8.1f ns\n" (Strategy.to_string s)
        r.Compiler.latency)
    results;
  let isa = List.assoc Strategy.Isa results in
  let agg = List.assoc Strategy.Cls_aggregation results in
  Printf.printf
    "  gate-based %.1f vs aggregated %.1f: speedup %.2fx (paper: 381.9 vs 128.3 = 2.97x)\n%!"
    isa.Compiler.latency agg.Compiler.latency
    (Compiler.speedup ~baseline:isa agg)

(* ------------------------------------------------------------------ *)
(* Fig. 4(c,d): pulses for the diagonal block                          *)

let fig4_pulses () =
  header "Fig. 4(c,d): pulses for the CNOT-Rz-CNOT block (G4-style)";
  let zz = [ Gate.cnot 0 1; Gate.rz gamma 1; Gate.cnot 0 1 ] in
  let gate_based = Qcontrol.Latency_model.isa_critical_path device zz in
  let optimized = block_time zz in
  Printf.printf
    "  gate-based concatenation: %.1f ns; aggregated model: %.1f ns\n"
    gate_based optimized;
  let _, target = Qgate.Unitary.on_support zz in
  let duration = optimized *. 1.3 in
  let problem =
    { Qcontrol.Grape.n_qubits = 2;
      couplings = [ (0, 1) ];
      target;
      duration;
      n_steps = 40;
      device }
  in
  let r = Qcontrol.Grape.optimize ~target_fidelity:0.99 problem in
  Printf.printf "  GRAPE at %.1f ns: fidelity %.4f after %d iterations\n"
    duration r.Qcontrol.Grape.fidelity r.Qcontrol.Grape.iterations;
  Format.printf "%a@." Qcontrol.Pulse.pp r.Qcontrol.Grape.pulse;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Table 3: benchmarks and program characteristics                     *)

let table3 () =
  header "Table 3: benchmark characteristics";
  Printf.printf "%-15s %-12s %6s %6s %6s %6s %12s %12s %12s\n" "benchmark"
    "application" "paperQ" "ourQ" "gates" "depth" "parallel" "locality"
    "commute";
  List.iter
    (fun (b : Qapps.Suite.benchmark) ->
      let circuit = Qapps.Suite.lowered b in
      let c = Qapps.Characteristics.analyze circuit in
      let lv v l =
        Printf.sprintf "%.2f/%s" v (Qapps.Characteristics.level_to_string l)
      in
      Printf.printf "%-15s %-12s %6d %6d %6d %6d %12s %12s %12s\n%!"
        b.Qapps.Suite.name b.Qapps.Suite.application b.Qapps.Suite.paper_qubits
        c.Qapps.Characteristics.qubits c.Qapps.Characteristics.gates
        c.Qapps.Characteristics.depth
        (lv c.Qapps.Characteristics.parallelism
           c.Qapps.Characteristics.parallelism_level)
        (lv c.Qapps.Characteristics.spatial_locality
           c.Qapps.Characteristics.spatial_locality_level)
        (lv c.Qapps.Characteristics.commutativity
           c.Qapps.Characteristics.commutativity_level))
    Qapps.Suite.all

(* ------------------------------------------------------------------ *)
(* Fig. 9: normalized latency across the suite                         *)

let results_cache : (string, (Strategy.t * Compiler.result) list) Hashtbl.t =
  Hashtbl.create 16

let compile_benchmark (b : Qapps.Suite.benchmark) =
  match Hashtbl.find_opt results_cache b.Qapps.Suite.name with
  | Some r -> r
  | None ->
    let circuit = Qapps.Suite.lowered b in
    let r = Compiler.compile_all circuit in
    Hashtbl.replace results_cache b.Qapps.Suite.name r;
    r

let fig9 () =
  header "Fig. 9: normalized circuit latency (ISA = 1.0)";
  let rows =
    List.map
      (fun (b : Qapps.Suite.benchmark) ->
        Printf.printf "  compiling %s...\n%!" b.Qapps.Suite.name;
        (b.Qapps.Suite.name, compile_benchmark b))
      Qapps.Suite.all
  in
  Qcc.Report.print_speedup_table
    ~header:"(the 9 Fig. 9 benchmarks)"
    (List.filter (fun (n, _) -> n <> "ising-n60") rows);
  Printf.printf "\nall 10 Table 3 instances (including ising-n60):\n";
  Qcc.Report.print_speedup_table ~header:"" rows;
  Printf.printf
    "paper: geomean speedup 5.07x (cls+aggregation), 2.338x (cls+hand), max ~10x\n\
     note: our ISA baseline schedules the generated program order, which is\n\
     more serial than ScaffCC's for QAOA-family circuits; per-stage ratios\n\
     (CLS vs ISA, aggregation vs CLS) are the comparable quantities -- see\n\
     EXPERIMENTS.md.\n%!"

(* ------------------------------------------------------------------ *)
(* Fig. 10: allowed instruction width vs normalized latency            *)

let fig10 () =
  header "Fig. 10: instruction width vs normalized latency (cls+aggregation)";
  let widths = [ 2; 4; 6; 8; 10 ] in
  let sweep name =
    let b = Qapps.Suite.find name in
    let circuit = Qapps.Suite.lowered b in
    let isa = Compiler.compile ~strategy:Strategy.Isa circuit in
    let norms =
      List.map
        (fun w ->
          let config =
            { Compiler.default_config with Compiler.width_limit = w }
          in
          let r =
            Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit
          in
          r.Compiler.latency /. isa.Compiler.latency)
        widths
    in
    Printf.printf "  %-14s" name;
    List.iter (fun v -> Printf.printf " %8.3f" v) norms;
    Printf.printf "\n%!"
  in
  Printf.printf "  %-14s" "width:";
  List.iter (fun w -> Printf.printf " %8d" w) widths;
  Printf.printf "\n  parallel applications (expected: early saturation):\n";
  List.iter sweep [ "maxcut-line"; "maxcut-reg4"; "ising-n30" ];
  Printf.printf "  serialized applications (expected: gains up to width 10):\n";
  List.iter sweep [ "sqrt-n3"; "uccsd-n4"; "uccsd-n6" ]

(* ------------------------------------------------------------------ *)
(* Fig. 11: spatial locality vs aggregation benefit                    *)

let fig11 () =
  header "Fig. 11: aggregated latency normalized to CLS (3 MAXCUT instances)";
  Printf.printf
    "  paper trend: high locality (line) benefits least, low locality\n  (cluster) benefits most\n";
  List.iter
    (fun name ->
      let results = compile_benchmark (Qapps.Suite.find name) in
      let cls = List.assoc Strategy.Cls results in
      let agg = List.assoc Strategy.Cls_aggregation results in
      Printf.printf "  %-16s %.3f\n%!" name
        (agg.Compiler.latency /. cls.Compiler.latency))
    [ "maxcut-line"; "maxcut-reg4"; "maxcut-cluster" ]

(* ------------------------------------------------------------------ *)
(* Sec. 6.4: encoding complexity vs advantage over hand optimization   *)

let sec64 () =
  header "Sec. 6.4: latency-reduction ratio, aggregation vs hand optimization";
  Printf.printf
    "  (reduction = ISA latency - strategy latency; paper: ~1x for\n  MAXCUT-line, 3.12x for UCCSD-n4, 3.68x for square root)\n";
  List.iter
    (fun name ->
      let results = compile_benchmark (Qapps.Suite.find name) in
      let isa = (List.assoc Strategy.Isa results).Compiler.latency in
      let agg =
        (List.assoc Strategy.Cls_aggregation results).Compiler.latency
      in
      let hand = (List.assoc Strategy.Cls_hand results).Compiler.latency in
      let ratio = (isa -. agg) /. Float.max 1e-9 (isa -. hand) in
      Printf.printf "  %-16s %.2fx\n%!" name ratio)
    [ "maxcut-line"; "uccsd-n4"; "sqrt-n3" ]

(* ------------------------------------------------------------------ *)
(* Sec. 3.6: verification of sampled aggregated instructions           *)

let verify () =
  header "Sec. 3.6: verification of sampled aggregated instructions";
  let rng = Qgraph.Rand.create 2025 in
  (* pulse-level verification (GRAPE) on 2-qubit diagonal blocks: compile
     maxcut-line at width 2 so the aggregates are exactly the paper's
     Sec. 4.2 diagonal blocks *)
  let narrow =
    Compiler.compile
      ~config:{ Compiler.default_config with Compiler.width_limit = 2 }
      ~strategy:Strategy.Cls_aggregation
      (Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line"))
  in
  let two_qubit_blocks =
    List.filter
      (fun block ->
        List.length
          (List.sort_uniq compare (List.concat_map Gate.qubits block))
        = 2)
      (Compiler.blocks narrow)
  in
  let report =
    Qsim.Verify.verify_sampled ~samples:3 ~max_pulse_width:2 rng device
      two_qubit_blocks
  in
  Format.printf "  maxcut-line (width 2): @[<v>%a@]@." Qsim.Verify.pp_report
    report;
  (* unitary-level verification across the rest *)
  List.iter
    (fun name ->
      let results = compile_benchmark (Qapps.Suite.find name) in
      let agg = List.assoc Strategy.Cls_aggregation results in
      let report =
        Qsim.Verify.verify_sampled ~samples:10 ~max_pulse_width:0 rng device
          (Compiler.blocks agg)
      in
      Printf.printf "  %-16s unitary check: %d/%d ok\n%!" name
        report.Qsim.Verify.n_passed report.Qsim.Verify.n_checked)
    [ "maxcut-line"; "ising-n30"; "maxcut-cluster" ]

(* ------------------------------------------------------------------ *)
(* Latency -> fidelity: the paper's motivating claim, quantified       *)

let fidelity () =
  header "Fidelity: output fidelity under T1/T2 decoherence (Sec. 1 claim)";
  let graph =
    Qgraph.Graph.of_edges 6 (List.init 6 (fun k -> (k, (k + 1) mod 6)))
  in
  let circuit = Qapps.Qaoa.circuit ~gamma:0.4 ~beta:1.2 graph in
  let config =
    { Compiler.default_config with
      Compiler.topology = Some (Qmap.Topology.line 6) }
  in
  let noise = Qsim.Noisy_sim.default_noise in
  Printf.printf
    "  QAOA on a 6-ring, line device, T1 = %.0f ns, T2 = %.0f ns\n"
    noise.Qsim.Noisy_sim.t1 noise.Qsim.Noisy_sim.t2;
  Printf.printf "  %-18s %12s %10s %10s\n" "strategy" "latency (ns)"
    "fidelity" "analytic";
  List.iter
    (fun (s, (r : Compiler.result)) ->
      let f = Qsim.Noisy_sim.schedule_fidelity ~noise r.Compiler.schedule in
      Printf.printf "  %-18s %12.1f %10.4f %10.4f\n%!" (Strategy.to_string s)
        r.Compiler.latency f
        (Qsim.Noisy_sim.survival_estimate ~noise ~n_qubits:6
           r.Compiler.latency))
    (Compiler.compile_all ~config circuit);
  Printf.printf
    "  latency reduction converts directly into output fidelity -- the\n  paper's do-or-die argument for pulse-level compilation.\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)

let ablations () =
  header "Ablation: monotonicity bound (paper's serial pessimism vs model cost)";
  let cost gs = block_time gs in
  List.iter
    (fun name ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let run pessimism =
        let g = Qgdg.Gdg.of_circuit ~latency:cost circuit in
        ignore (Qgdg.Diagonal.detect_and_contract ~latency:cost g);
        let stats = Qagg.Aggregator.run ~pessimism ~cost g in
        stats.Qagg.Aggregator.final_makespan
      in
      Printf.printf "  %-14s serial %10.1f ns | model %10.1f ns\n%!" name
        (run `Serial) (run `Model))
    [ "maxcut-line"; "uccsd-n4"; "sqrt-n3" ];

  header "Ablation: initial placement (recursive bisection vs identity)";
  List.iter
    (fun name ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let topology = Qmap.Topology.grid_for (Qgate.Circuit.n_qubits circuit) in
      let swaps placement =
        let routed, _ = Qmap.Router.route_circuit ?placement ~topology circuit in
        Qgate.Circuit.count (fun g -> g.Gate.kind = Gate.Swap) routed
      in
      let identity =
        Qmap.Placement.identity
          ~n_logical:(Qgate.Circuit.n_qubits circuit) topology
      in
      Printf.printf "  %-14s bisection %5d swaps | identity %5d swaps\n%!"
        name (swaps None) (swaps (Some identity)))
    [ "maxcut-reg4"; "maxcut-cluster"; "sqrt-n3" ];

  header "Ablation: physical architecture (paper Appendix A)";
  Printf.printf "  cls+aggregation latency of the Fig. 4 example per coupling:\n";
  let circuit = Qapps.Qaoa.triangle_example () in
  List.iter
    (fun interaction ->
      let config =
        { Compiler.default_config with
          Compiler.device =
            Qcontrol.Device.with_interaction interaction Qcontrol.Device.default;
          topology = Some (Qmap.Topology.line 3) }
      in
      let isa = Compiler.compile ~config ~strategy:Strategy.Isa circuit in
      let agg =
        Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit
      in
      Printf.printf "  %-45s isa %8.1f ns | cls+agg %8.1f ns (%.2fx)\n%!"
        (Qcontrol.Device.interaction_name interaction)
        isa.Compiler.latency agg.Compiler.latency
        (Compiler.speedup ~baseline:isa agg))
    [ Qcontrol.Device.Xy; Qcontrol.Device.Zz; Qcontrol.Device.Heisenberg ];

  header "Ablation: fermion encoding (Sec. 5.2: Jordan-Wigner vs Bravyi-Kitaev)";
  List.iter
    (fun n ->
      let run encoding =
        let circuit =
          Qgate.Decompose.to_isa (Qapps.Uccsd.circuit ~encoding n)
        in
        let isa = Compiler.compile ~strategy:Strategy.Isa circuit in
        let agg =
          Compiler.compile ~strategy:Strategy.Cls_aggregation circuit
        in
        (Qgate.Circuit.n_gates circuit, isa.Compiler.latency,
         agg.Compiler.latency)
      in
      let jw_g, jw_isa, jw_agg = run Qapps.Fermion.Jordan_wigner in
      let bk_g, bk_isa, bk_agg = run Qapps.Fermion.Bravyi_kitaev in
      Printf.printf
        "  uccsd-n%d  JW: %4d gates, isa %8.1f, cls+agg %8.1f (%.2fx) | BK: %4d gates, isa %8.1f, cls+agg %8.1f (%.2fx)\n%!"
        n jw_g jw_isa jw_agg (jw_isa /. jw_agg) bk_g bk_isa bk_agg
        (bk_isa /. bk_agg))
    [ 4; 6 ];

  header "Ablation: commutativity detection off (aggregation on raw gates)";
  List.iter
    (fun name ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let with_detection detect =
        let g = Qgdg.Gdg.of_circuit ~latency:cost circuit in
        if detect then
          ignore (Qgdg.Diagonal.detect_and_contract ~latency:cost g);
        ignore (Qagg.Aggregator.run ~cost g);
        Qsched.Cls.makespan g
      in
      Printf.printf "  %-14s with detection %10.1f ns | without %10.1f ns\n%!"
        name (with_detection true) (with_detection false))
    [ "maxcut-line"; "ising-n30" ]

(* ------------------------------------------------------------------ *)
(* Pipeline observability: per-pass wall time for BENCH_pipeline.json  *)

let pipeline_benchmarks =
  [ "maxcut-line"; "maxcut-reg4"; "ising-n30"; "sqrt-n3"; "uccsd-n4";
    "uccsd-n6" ]

(* repetitions per benchmark, for the baseline and the gate alike *)
let measure_reps = 3

(* The one measurement behind the committed baseline ([pipeline]) and
   the perf gate ([perf-gate]). Each repetition of a benchmark starts
   from cold memos ([Compiler.reset_all_memos]) and compiles every
   strategy through one fresh stage cache, as [compile_all] would, with
   tracing and metrics on. The repetitions of a benchmark run back to
   back and only its JSON entries outlive them, so its times do not
   depend on which benchmarks ran before it in the process. Returns one
   BENCH_pipeline.json entry per benchmark×strategy cell: the first
   repetition's results, metrics and per-pass GC figures, with the
   minimum compile and pass wall times over the repetitions. *)
let measure ~reps benches =
  List.concat_map
    (fun bench ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find bench) in
      Printf.printf "  profiling %s...\n%!" bench;
      let run () =
        Compiler.reset_all_memos ();
        let cache = Qcc.Pipeline.Cache.create () in
        List.map
          (fun strategy ->
            let obs = Qobs.Trace.create () in
            let metrics = Qobs.Metrics.create () in
            let r = Compiler.compile ~obs ~metrics ~cache ~strategy circuit in
            let spans =
              match r.Compiler.trace with
              | None -> []
              | Some root -> Qobs.Span.children root
            in
            (strategy, r, metrics, spans))
          Strategy.all
      in
      (* per strategy: the compile time, then each pass span's *)
      let times (_, r, _, spans) =
        r.Compiler.compile_time :: List.map Qobs.Span.duration_ns spans
      in
      let first = run () in
      let best = ref (List.map times first) in
      for _rep = 2 to reps do
        best := List.map2 (List.map2 Float.min) !best (List.map times (run ()))
      done;
      List.map2
        (fun (strategy, r, metrics, spans) best ->
          let compile_s = List.hd best and walls = List.tl best in
          (* one row per pass span under the compile root, in the
             ledger's shape, with the minimum wall time *)
          let passes =
            List.map2
              (fun span wall ->
                match Qobs.Ledger.pass_row span with
                | Qobs.Json.Obj fields ->
                  Qobs.Json.Obj
                    (List.map
                       (fun (k, v) ->
                         if k = "wall_ns" then (k, Qobs.Json.Float wall)
                         else (k, v))
                       fields)
                | row -> row)
              spans walls
          in
          Qobs.Json.Obj
            [ ("benchmark", Qobs.Json.Str bench);
              ("strategy", Qobs.Json.Str (Strategy.to_string strategy));
              ("compile_time_s", Qobs.Json.Float compile_s);
              ("latency_ns", Qobs.Json.Float r.Compiler.latency);
              ("instructions", Qobs.Json.Int r.Compiler.n_instructions);
              ("swaps", Qobs.Json.Int r.Compiler.n_swaps_inserted);
              ("merges", Qobs.Json.Int r.Compiler.n_merges);
              ("passes", Qobs.Json.List passes);
              ("metrics", Qobs.Metrics.to_json metrics) ])
        first !best)
    benches

let pipeline () =
  header "Pipeline: per-pass wall-time breakdown (BENCH_pipeline.json)";
  let entries = measure ~reps:measure_reps pipeline_benchmarks in
  let doc =
    Qobs.Json.Obj
      [ ("schema", Qobs.Json.Str "qcc.bench.pipeline/1");
        ("entries", Qobs.Json.List entries) ]
  in
  Qobs.Json.write_file "BENCH_pipeline.json" doc;
  Printf.printf "  wrote BENCH_pipeline.json (%d entries)\n%!"
    (List.length entries)

(* ------------------------------------------------------------------ *)
(* Perf gate: fresh per-pass times vs the committed baseline           *)

(* The gate re-measures [gate_benchmarks] with [measure] and compares
   each pass against the baseline ($QCC_PERF_BASELINE, default
   BENCH_pipeline.json, written by [pipeline] through the same
   function). Passes whose baseline is below [gate_floor_ms] are not
   gated; each pass in [gate_required] must still be gated by at least
   one row, so a baseline whose hot passes all fell below the floor
   cannot silently un-gate them. *)
let gate_factor = 1.75
let gate_floor_ms = 2.0
let gate_benchmarks = [ "maxcut-line"; "sqrt-n3"; "uccsd-n4" ]
let gate_required = [ "detect"; "schedule"; "aggregate" ]

(* The verdict on (key, baseline ns, fresh ns) rows. To stay robust
   against uniform machine skew (different hardware, load) while still
   catching a single slow pass, the ratios are calibrated by their
   median: a machine 2x slower everywhere has median ratio 2 and
   normalized ratios ~1, but one regressed pass sticks out of the median
   unchanged. The calibration is clamped so a pathological baseline
   cannot silently raise the bar. Returns the skew, every row with its
   normalized ratio (worst first), and the failing rows: those above
   [gate_factor]. *)
let gate_verdict rows =
  let ratios = List.sort compare (List.map (fun (_, b, f) -> f /. b) rows) in
  let median = List.nth ratios (List.length ratios / 2) in
  let skew = Float.max 0.25 (Float.min 4.0 median) in
  let normalized =
    List.sort
      (fun (_, _, _, a) (_, _, _, b) -> compare b a)
      (List.map (fun (key, b, f) -> (key, b, f, f /. b /. skew)) rows)
  in
  (skew, normalized, List.filter (fun (_, _, _, r) -> r > gate_factor) normalized)

(* (benchmark, strategy, pass) -> wall ns, from BENCH_pipeline.json
   entries *)
let pass_walls entries =
  let str k j =
    match Qobs.Json.member k j with Some (Qobs.Json.Str s) -> s | _ -> ""
  in
  let walls = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match Qobs.Json.member "passes" e with
      | Some (Qobs.Json.List passes) ->
        List.iter
          (fun p ->
            let wall =
              match Qobs.Json.member "wall_ns" p with
              | Some (Qobs.Json.Float f) -> f
              | Some (Qobs.Json.Int n) -> float_of_int n
              | _ -> 0.
            in
            Hashtbl.replace walls
              (str "benchmark" e, str "strategy" e, str "pass" p)
              wall)
          passes
      | _ -> ())
    entries;
  walls

let perf_gate () =
  header "Perf gate: fresh per-pass wall times vs committed baseline";
  let baseline_path =
    Option.value ~default:"BENCH_pipeline.json"
      (Sys.getenv_opt "QCC_PERF_BASELINE")
  in
  (* measure before reading the baseline, so the process state up to
     the measurement is the same as when [pipeline] recorded it *)
  let fresh = pass_walls (measure ~reps:measure_reps gate_benchmarks) in
  let base =
    match
      Qobs.Json.of_string
        (In_channel.with_open_text baseline_path In_channel.input_all)
    with
    | Ok doc -> (
      match Qobs.Json.member "entries" doc with
      | Some (Qobs.Json.List entries) -> pass_walls entries
      | _ -> failwith (Printf.sprintf "%s: no entries array" baseline_path))
    | Error msg -> failwith (Printf.sprintf "%s: %s" baseline_path msg)
    | exception Sys_error msg -> failwith msg
  in
  (* gated rows: both sides present, baseline at or above the floor *)
  let rows =
    Hashtbl.fold
      (fun key base_ns acc ->
        match Hashtbl.find_opt fresh key with
        | Some f when base_ns /. 1e6 >= gate_floor_ms -> (key, base_ns, f) :: acc
        | _ -> acc)
      base []
  in
  if rows = [] then
    failwith
      (Printf.sprintf
         "perf gate: no passes at or above the %.1f ms floor — regenerate \
          the baseline (bench/main.exe pipeline)" gate_floor_ms);
  List.iter
    (fun pass ->
      if not (List.exists (fun ((_, _, p), _, _) -> p = pass) rows) then
        failwith
          (Printf.sprintf
             "perf gate: required pass %S has no gated row (floor %.1f ms) \
              — regenerate the baseline (bench/main.exe pipeline) or revisit \
              the gate constants in bench/main.ml"
             pass gate_floor_ms))
    gate_required;
  (* self-check: the same rows, with every aggregate row at twice its
     baseline time and every other row at exactly its baseline time,
     must fail the verdict. The rows come from the baseline alone, so
     this check cannot flake. *)
  let seeded =
    List.map
      (fun (((_, _, pass) as key), b, _) ->
        (key, b, if pass = "aggregate" then 2. *. b else b))
      rows
  in
  let _, _, seeded_failures = gate_verdict seeded in
  if seeded_failures = [] then begin
    Printf.eprintf "  FAIL perf gate: gate cannot see a 2× aggregate slowdown\n%!";
    exit 1
  end;
  let skew, normalized, failures = gate_verdict rows in
  Printf.printf
    "  %d passes gated (floor %.1f ms, factor %.2f, reps %d, machine skew %.2fx)\n"
    (List.length rows) gate_floor_ms gate_factor measure_reps skew;
  List.iteri
    (fun i ((bench, strat, pname), b, f, r) ->
      if i < 12 then
        Printf.printf "  %-14s %-16s %-12s base %9.2f ms | fresh %9.2f ms | x%5.2f\n"
          bench strat pname (b /. 1e6) (f /. 1e6) r)
    normalized;
  if failures = [] then Printf.printf "  perf gate OK\n%!"
  else begin
    List.iter
      (fun ((bench, strat, pname), b, f, r) ->
        Printf.eprintf
          "  FAIL %s/%s/%s: %.2f ms vs baseline %.2f ms (normalized %.2fx > %.2fx)\n%!"
          bench strat pname (f /. 1e6) (b /. 1e6) r gate_factor)
      failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel runner shared by the microbenchmark experiments            *)

(* Each test for up to 2000 samples / 0.5 s; prints the OLS estimate of
   the time per run, names padded to [name_width]. *)
let run_bechamel ~name_width tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-*s %12.1f ns/run\n%!" name_width name est
          | Some _ | None ->
            Printf.printf "  %-*s (no estimate)\n%!" name_width name)
        (Analyze.all ols instance results))
    tests

(* ------------------------------------------------------------------ *)
(* Observability overhead: the default-off path must be free           *)

let obs_overhead () =
  header "Observability overhead: disabled collectors vs instrumented compile";
  let circuit = Qapps.Qaoa.triangle_example () in
  let config =
    { Compiler.default_config with
      Compiler.topology = Some (Qmap.Topology.line 3) }
  in
  let compile_off () =
    Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit
  in
  let compile_on () =
    Compiler.compile ~config ~obs:(Qobs.Trace.create ())
      ~metrics:(Qobs.Metrics.create ()) ~strategy:Strategy.Cls_aggregation
      circuit
  in
  (* direct wall-clock comparison over many runs: default-off must stay
     within noise (<2%) of a build without instrumentation, and since the
     instrumented path IS this build, we check off vs on instead -- off
     must not be slower than on beyond noise *)
  let time_n n f =
    let t0 = Qobs.Clock.now_ns () in
    for _ = 1 to n do ignore (f ()) done;
    (Qobs.Clock.now_ns () -. t0) /. float_of_int n
  in
  ignore (time_n 3 compile_off);
  (* warm-up *)
  let off = time_n 20 compile_off in
  let on = time_n 20 compile_on in
  Printf.printf
    "  compile (cls+aggregation, Fig. 4 triangle): off %10.0f ns/run | on %10.0f ns/run (on/off %.3fx)\n%!"
    off on (on /. off);
  let open Bechamel in
  let tests =
    [ Test.make ~name:"with_span-disabled"
        (Staged.stage (fun () ->
             Qobs.Trace.with_span Qobs.Trace.disabled "pass" (fun () -> 42)));
      Test.make ~name:"metrics-tick-ambient-disabled"
        (Staged.stage (fun () -> Qobs.Metrics.tick "bench.noop"));
      Test.make ~name:"compile-obs-off" (Staged.stage compile_off);
      Test.make ~name:"compile-obs-on" (Staged.stage compile_on) ]
  in
  run_bechamel ~name_width:28 tests

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the compiler passes                     *)

let bechamel () =
  header "Bechamel: compiler-pass microbenchmarks (maxcut-line workload)";
  let open Bechamel in
  let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
  let latency gs = Qcontrol.Latency_model.isa_critical_path device gs in
  let make_gdg () = Qgdg.Gdg.of_circuit ~latency circuit in
  let contracted () =
    let g = make_gdg () in
    ignore (Qgdg.Diagonal.detect_and_contract ~latency g);
    g
  in
  let tests =
    [ Test.make ~name:"gdg-construction" (Staged.stage make_gdg);
      Test.make ~name:"diagonal-detection" (Staged.stage contracted);
      Test.make ~name:"cls-schedule"
        (Staged.stage (fun () -> Qsched.Cls.schedule (contracted ())));
      Test.make ~name:"placement-routing"
        (Staged.stage (fun () ->
             Qmap.Router.route_circuit ~topology:(Qmap.Topology.grid_for 20)
               circuit));
      Test.make ~name:"latency-model-zz"
        (Staged.stage (fun () ->
             block_time [ Gate.cnot 0 1; Gate.rz gamma 1; Gate.cnot 0 1 ]));
      Test.make ~name:"weyl-coordinates"
        (Staged.stage (fun () ->
             Qcontrol.Weyl.coordinates (Qgate.Unitary.of_kind Gate.Iswap)))
    ]
  in
  run_bechamel ~name_width:24 tests

(* ------------------------------------------------------------------ *)

let certify_overhead () =
  header
    "Certification overhead: plain compile vs ~certify:true, per strategy";
  List.iter
    (fun bench ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find bench) in
      List.iter
        (fun strategy ->
          let t0 = Qobs.Clock.now_ns () in
          ignore (Compiler.compile ~strategy circuit);
          let plain = Qobs.Clock.now_ns () -. t0 in
          let t1 = Qobs.Clock.now_ns () in
          let r = Compiler.compile ~certify:true ~strategy circuit in
          let certified = Qobs.Clock.now_ns () -. t1 in
          let facts =
            match r.Compiler.certificate with
            | Some c -> c.Qcert.Certificate.facts
            | None -> 0
          in
          Printf.printf
            "  %-14s %-16s plain %8.1f ms | certified %8.1f ms (%5.1fx) | %6d facts\n%!"
            bench
            (Strategy.to_string strategy)
            (plain /. 1e6) (certified /. 1e6)
            (certified /. plain) facts)
        Strategy.all)
    [ "maxcut-line"; "ising-n30"; "uccsd-n4" ]

(* ------------------------------------------------------------------ *)
(* Parallel scaling: jobs ∈ {1,2,4,8} over the full matrix             *)

(* The real driver end-to-end: [Compiler.compile_matrix] over the whole
   benchmark×strategy matrix at each pool size, through the Parallel
   executor, the shared compute-once stage cache and per-job metrics
   shards — certification on, so the byte-identity assertion covers the
   certificate digests too. The jobs=1 sweep is the pooled sequential
   reference every other pool size must match cell for cell. *)
let par_scale () =
  header "Parallel scaling: jobs in {1,2,4,8} over the benchmark matrix \
          (BENCH_par.json)";
  let named =
    (* force the lazy suite circuits on the main domain before any spawn *)
    List.map
      (fun b -> (b, Qapps.Suite.lowered (Qapps.Suite.find b)))
      pipeline_benchmarks
  in
  let fingerprint r =
    let digest =
      match r.Compiler.certificate with
      | Some c ->
        Digest.to_hex
          (Digest.string (Qobs.Json.to_string (Qcert.Certificate.to_json c)))
      | None -> "<uncertified>"
    in
    (Printf.sprintf "%h" r.Compiler.latency, r.Compiler.n_merges, digest)
  in
  let sweep jobs =
    let t0 = Qobs.Clock.now_ns () in
    let rows = Compiler.compile_matrix ~certify:true ~jobs named in
    let wall_s = (Qobs.Clock.now_ns () -. t0) /. 1e9 in
    let cells =
      List.concat_map
        (fun (bench, results) ->
          List.map
            (fun (s, r) ->
              ((bench, Strategy.to_string s), fingerprint r,
               r.Compiler.compile_time))
            results)
        rows
    in
    (wall_s, cells)
  in
  let quantile q times =
    let a = Array.of_list (List.sort compare times) in
    let n = Array.length a in
    if n = 0 then 0.
    else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  let sweeps =
    List.map
      (fun jobs ->
        Printf.printf "  jobs=%d: compiling %d cells...\n%!" jobs
          (List.length named * List.length Strategy.all);
        let wall_s, cells = sweep jobs in
        (jobs, wall_s, cells))
      [ 1; 2; 4; 8 ]
  in
  let _, ref_wall, ref_cells = List.hd sweeps in
  let failed = ref false in
  List.iter
    (fun (jobs, _, cells) ->
      List.iter2
        (fun (key, e_fp, _) (key', g_fp, _) ->
          assert (key = key');
          if g_fp <> e_fp then begin
            let bench, strategy = key in
            let (e_lat, e_merges, e_digest) = e_fp
            and (g_lat, g_merges, g_digest) = g_fp in
            Printf.eprintf
              "  FAIL %s/%s at jobs=%d: (lat %s, merges %d, cert %s) vs \
               jobs=1 (lat %s, merges %d, cert %s)\n%!"
              bench strategy jobs g_lat g_merges g_digest e_lat e_merges
              e_digest;
            failed := true
          end)
        ref_cells cells)
    (List.tl sweeps);
  let sweep_json (jobs, wall_s, cells) =
    let job_times = List.map (fun (_, _, t) -> t) cells in
    Printf.printf
      "  jobs=%d: wall %6.2f s | speedup %5.2fx | job p50 %6.1f ms, p99 \
       %6.1f ms\n%!"
      jobs wall_s (ref_wall /. wall_s)
      (quantile 0.5 job_times *. 1e3)
      (quantile 0.99 job_times *. 1e3);
    Qobs.Json.Obj
      [ ("jobs", Qobs.Json.Int jobs);
        ("wall_s", Qobs.Json.Float wall_s);
        ("speedup", Qobs.Json.Float (ref_wall /. wall_s));
        ("job_wall_p50_s", Qobs.Json.Float (quantile 0.5 job_times));
        ("job_wall_p99_s", Qobs.Json.Float (quantile 0.99 job_times)) ]
  in
  let doc =
    Qobs.Json.Obj
      [ ("schema", Qobs.Json.Str "qcc.bench.par/1");
        ("benchmarks",
         Qobs.Json.List
           (List.map (fun b -> Qobs.Json.Str b) pipeline_benchmarks));
        ("strategies", Qobs.Json.Int (List.length Strategy.all));
        ("cells", Qobs.Json.Int (List.length ref_cells));
        ("identical", Qobs.Json.Bool (not !failed));
        ("sweeps", Qobs.Json.List (List.map sweep_json sweeps)) ]
  in
  Qobs.Json.write_file "BENCH_par.json" doc;
  Printf.printf "  wrote BENCH_par.json (%s)\n%!"
    (if !failed then "MISMATCH" else "all pool sizes byte-identical");
  if !failed then exit 1

let experiments =
  [ ("table1", table1);
    ("fig4", fig4);
    ("fig4_pulses", fig4_pulses);
    ("table3", table3);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("sec64", sec64);
    ("verify", verify);
    ("fidelity", fidelity);
    ("ablations", ablations);
    ("pipeline", pipeline);
    ("par-scale", par_scale);
    ("perf-gate", perf_gate);
    ("obs-overhead", obs_overhead);
    ("certify-overhead", certify_overhead);
    ("bechamel", bechamel) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested
