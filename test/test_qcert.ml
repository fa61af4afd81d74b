(* tests for Qcert translation validation: the abstract domains against
   dense references, each boundary certifier on hand-built cases, seeded
   miscompilation mutations, and the full certify matrix *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Schedule = Qsched.Schedule
module Cmat = Qnum.Cmat
module D = Qlint.Diagnostic
module Cert = Qcert.Certificate
module Domain = Qcert.Domain

let verdict (v, _) = v
let codes (o : Cert.outcome) = List.map (fun d -> d.D.code) o.Cert.diags
let error_codes (o : Cert.outcome) =
  List.filter_map
    (fun (d : D.t) -> if D.is_error d then Some d.D.code else None)
    o.Cert.diags

let check_proved name o =
  check_bool name true (error_codes o = [] && o.Cert.checks > 0)

(* ---- abstract domains vs the dense reference ---- *)

let dense_commutes a b =
  let joint =
    List.sort_uniq compare (List.concat_map Gate.qubits (a @ b))
  in
  let n = List.fold_left (fun acc q -> max acc (q + 1)) 1 joint in
  let ua = Qgate.Unitary.of_gates ~n_qubits:n a
  and ub = Qgate.Unitary.of_gates ~n_qubits:n b in
  Cmat.equal_up_to_phase ~eps:1e-9 (Cmat.mul ua ub) (Cmat.mul ub ua)

let domain_cases =
  [ case "tableau proves clifford identities" (fun () ->
        check_bool "ss=z" true
          (verdict (Domain.equal_gates [ Gate.s 0; Gate.s 0 ] [ Gate.z 0 ])
           = Domain.Proved);
        check_bool "hzh=x" true
          (verdict
             (Domain.equal_gates
                [ Gate.h 0; Gate.z 0; Gate.h 0 ]
                [ Gate.x 0 ])
           = Domain.Proved);
        check_bool "h<>x" true
          (verdict (Domain.equal_gates [ Gate.h 0 ] [ Gate.x 0 ])
           = Domain.Refuted));
    case "tableau scales to 40 qubits" (fun () ->
        (* a CNOT ladder far beyond the dense limit: exchanging two
           disjoint-support rungs is legal, an extra X is not *)
        let ladder = List.init 39 (fun k -> Gate.cnot k (k + 1)) in
        let exchanged =
          match ladder with
          | a :: b :: c :: rest -> a :: c :: b :: rest
          | _ -> assert false
        in
        check_bool "exchange refuted" true
          (verdict (Domain.equal_gates ladder exchanged) = Domain.Refuted);
        let swapped_tail = ladder @ [ Gate.x 7 ] in
        check_bool "extra x refuted" true
          (verdict (Domain.equal_gates ladder swapped_tail) = Domain.Refuted);
        check_bool "itself proved" true
          (verdict
             (Domain.equal_gates ladder (List.map (fun g -> g) ladder))
           = Domain.Proved));
    case "phase polynomial scales to 40 qubits" (fun () ->
        let word =
          List.concat
            (List.init 20 (fun k ->
                 [ Gate.cnot (2 * k) (2 * k + 1); Gate.rz 0.3 (2 * k + 1) ]))
        in
        (* commuting diagonal rotations on distinct targets may reorder *)
        let reordered =
          match word with
          | a :: b :: c :: d :: rest -> c :: d :: a :: b :: rest
          | _ -> assert false
        in
        check_bool "reorder proved" true
          (verdict (Domain.equal_gates word reordered) = Domain.Proved);
        let wrong_angle =
          match word with
          | a :: Qgate.Gate.{ kind = _; qubits = _ } :: rest ->
            a :: Gate.rz 0.31 1 :: rest
          | _ -> assert false
        in
        check_bool "angle change refuted" true
          (verdict (Domain.equal_gates word wrong_angle) = Domain.Refuted));
    qcheck ~count:40 "phase-polynomial matrix agrees with dense product"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 2 in
        let gates =
          List.init 8 (fun _ ->
              let q = Qgraph.Rand.int rng n in
              match Qgraph.Rand.int rng 3 with
              | 0 -> Gate.cnot q ((q + 1) mod n)
              | 1 -> Gate.rz (Qgraph.Rand.float rng 6.28) q
              | _ -> Gate.t q)
        in
        match Qdomain.Phase_poly.of_gates ~n_qubits:n gates with
        | None -> false
        | Some p ->
          Cmat.equal_up_to_phase ~eps:1e-7
            (Qdomain.Phase_poly.to_matrix p)
            (Qgate.Unitary.of_gates ~n_qubits:n gates));
    qcheck ~count:40 "blocks_commute verdicts agree with the dense reference"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let block () = random_unitary_gates rng 3 3 in
        let a = block () and b = block () in
        match verdict (Domain.blocks_commute a b) with
        | Domain.Proved -> dense_commutes a b
        | Domain.Refuted -> not (dense_commutes a b)
        | Domain.Unknown -> true) ]

(* ---- word equivalence and reorder certificates ---- *)

let reorder_cases =
  [ case "dependence accepts disjoint interleavings only" (fun () ->
        let src = [ Gate.h 0; Gate.h 1; Gate.x 0 ] in
        check_proved "interleaved"
          (Qcert.Reorder.dependence ~stage:"t" ~src
             ~dst:[ Gate.h 1; Gate.h 0; Gate.x 0 ]);
        let o =
          Qcert.Reorder.dependence ~stage:"t" ~src
            ~dst:[ Gate.x 0; Gate.h 0; Gate.h 1 ]
        in
        check_bool "same-qubit reorder refuted" true
          (List.mem "QC012" (error_codes o));
        let o =
          Qcert.Reorder.dependence ~stage:"t" ~src ~dst:[ Gate.h 0; Gate.h 1 ]
        in
        check_bool "dropped gate refuted" true
          (List.mem "QC011" (error_codes o)));
    case "schedule replay certifies commuting exchanges" (fun () ->
        let c = Circuit.make 1 [ Gate.rz 0.4 0; Gate.rz 0.9 0 ] in
        let g = Gdg.of_circuit ~latency:(fun _ -> 1.) c in
        let entries =
          List.mapi
            (fun k (i : Inst.t) ->
              (* run the chain in reversed order: legal, both diagonal *)
              let start = float_of_int (1 - k) in
              { Schedule.inst = i; start; finish = start +. 1. })
            (Gdg.insts g)
        in
        check_proved "diagonal exchange"
          (Qcert.Reorder.schedule ~stage:"t" ~original:g
             (Schedule.make ~n_qubits:1 entries)));
    case "mutation: flipped commutation is caught (QC030)" (fun () ->
        let c = Circuit.make 1 [ Gate.h 0; Gate.t 0 ] in
        let g = Gdg.of_circuit ~latency:(fun _ -> 1.) c in
        let entries =
          List.mapi
            (fun k (i : Inst.t) ->
              let start = float_of_int (1 - k) in
              { Schedule.inst = i; start; finish = start +. 1. })
            (Gdg.insts g)
        in
        let o =
          Qcert.Reorder.schedule ~stage:"t" ~original:g
            (Schedule.make ~n_qubits:1 entries)
        in
        check_bool "QC030" true (List.mem "QC030" (error_codes o))) ]

(* ---- regrouping: contraction and aggregation certificates ---- *)

let inst id gates = Inst.make ~id ~latency:1. gates

let regroup_cases =
  [ case "regroup accepts a faithful merge" (fun () ->
        let before = [ inst 0 [ Gate.rz 0.2 0 ]; inst 1 [ Gate.rz 0.7 0 ] ] in
        let after = [ inst 10 [ Gate.rz 0.2 0; Gate.rz 0.7 0 ] ] in
        check_proved "merge"
          (Qcert.Reorder.regroup ~stage:"t" ~code_parse:"QC021"
             ~code_reorder:"QC021" ~before ~after ()));
    case "regroup certifies a commuting member exchange" (fun () ->
        let before = [ inst 0 [ Gate.rz 0.2 0 ]; inst 1 [ Gate.rz 0.7 0 ] ] in
        let after = [ inst 10 [ Gate.rz 0.7 0; Gate.rz 0.2 0 ] ] in
        check_proved "exchange"
          (Qcert.Reorder.regroup ~stage:"t" ~code_parse:"QC021"
             ~code_reorder:"QC021" ~before ~after ()));
    case "block exchange: aggregate commutes only as a whole" (fun () ->
        (* [x;x] = identity crosses the SWAP as a block though neither X
           does individually — the pattern iterated merges produce *)
        let before =
          [ inst 0 [ Gate.swap 0 1 ];
            inst 1 [ Gate.x 0 ];
            inst 2 [ Gate.x 0 ] ]
        in
        let after =
          [ inst 10 [ Gate.x 0; Gate.x 0 ]; inst 11 [ Gate.swap 0 1 ] ]
        in
        check_proved "block crossing"
          (Qcert.Reorder.regroup ~stage:"t" ~code_parse:"QC052"
             ~code_reorder:"QC052" ~before ~after ()));
    case "mutation: illegal exchange is caught (QC052)" (fun () ->
        let before = [ inst 0 [ Gate.x 0 ]; inst 1 [ Gate.h 0 ] ] in
        let after = [ inst 10 [ Gate.h 0; Gate.x 0 ] ] in
        let o =
          Qcert.Reorder.regroup ~stage:"t" ~code_parse:"QC052"
            ~code_reorder:"QC052" ~before ~after ()
        in
        check_bool "QC052" true (List.mem "QC052" (error_codes o)));
    case "mutation: vanished instruction is caught" (fun () ->
        let before = [ inst 0 [ Gate.x 0 ]; inst 1 [ Gate.h 1 ] ] in
        let after = [ inst 10 [ Gate.x 0 ] ] in
        let o =
          Qcert.Reorder.regroup ~stage:"t" ~code_parse:"QC021"
            ~code_reorder:"QC021" ~before ~after ()
        in
        check_bool "QC021" true (List.mem "QC021" (error_codes o)));
    case "mutation: widened aggregate is caught (QC051)" (fun () ->
        let before =
          [ inst 0 [ Gate.cnot 0 1 ]; inst 1 [ Gate.cnot 1 2 ] ]
        in
        let after = [ inst 10 [ Gate.cnot 0 1; Gate.cnot 1 2 ] ] in
        let o =
          Qcert.Reorder.regroup ~stage:"t" ~code_parse:"QC052"
            ~code_reorder:"QC052" ~width_limit:2 ~before ~after ()
        in
        check_bool "QC051" true (List.mem "QC051" (error_codes o))) ]

(* ---- routing replay ---- *)

let route_cases =
  let topo = Qmap.Topology.line 3 in
  let ident = Qmap.Placement.identity ~n_logical:3 topo in
  [ case "replay absorbs an inserted swap" (fun () ->
        let logical = [ inst 0 [ Gate.cnot 0 2 ] ] in
        let routed =
          [ inst 100 [ Gate.swap 1 2 ]; inst 0 [ Gate.cnot 0 1 ] ]
        in
        let final = Qmap.Placement.apply_swap ident 1 2 in
        check_proved "swap absorbed"
          (Qcert.Route_check.insts ~stage:"t" ~initial:ident ~final ~logical
             ~routed));
    case "mutation: dropped swap is caught (QC040/QC041)" (fun () ->
        let logical = [ inst 0 [ Gate.cnot 0 2 ] ] in
        let routed = [ inst 0 [ Gate.cnot 0 1 ] ] in
        let final = Qmap.Placement.apply_swap ident 1 2 in
        let o =
          Qcert.Route_check.insts ~stage:"t" ~initial:ident ~final ~logical
            ~routed
        in
        check_bool "caught" true
          (List.exists
             (fun c -> c = "QC040" || c = "QC041")
             (error_codes o)));
    case "mutation: wrong final placement is caught (QC041)" (fun () ->
        let logical = [ inst 0 [ Gate.cnot 0 1 ] ] in
        let routed = [ inst 0 [ Gate.cnot 0 1 ] ] in
        let final = Qmap.Placement.apply_swap ident 0 1 in
        let o =
          Qcert.Route_check.insts ~stage:"t" ~initial:ident ~final ~logical
            ~routed
        in
        check_bool "QC041" true (List.mem "QC041" (error_codes o))) ]

(* ---- rewrite equivalence (peephole boundaries) ---- *)

let rewrite_cases =
  [ case "rewrite proves a cancellation" (fun () ->
        check_proved "hh cancels"
          (Qcert.Rewrite.equivalence ~stage:"t"
             ~src:[ Gate.h 0; Gate.h 0; Gate.cnot 0 1 ]
             ~dst:[ Gate.cnot 0 1 ]));
    case "rewrite refutes a wrong rewrite (QC010)" (fun () ->
        let o =
          Qcert.Rewrite.equivalence ~stage:"t"
            ~src:[ Gate.h 0; Gate.cnot 0 1 ]
            ~dst:[ Gate.cnot 0 1 ]
        in
        check_bool "QC010" true (List.mem "QC010" (error_codes o))) ]

(* ---- certificates and the compiler integration ---- *)

let strategies = Qcc.Strategy.all

let compiler_cases =
  [ case "certify matrix: small benchmarks, all strategies" (fun () ->
        List.iter
          (fun bench ->
            let c = Qapps.Suite.lowered (Qapps.Suite.find bench) in
            List.iter
              (fun strategy ->
                let r = Qcc.Compiler.compile ~certify:true ~strategy c in
                match r.Qcc.Compiler.certificate with
                | None -> Alcotest.fail (bench ^ ": no certificate")
                | Some cert ->
                  check_bool
                    (Printf.sprintf "%s/%s certified" bench
                       (Qcc.Strategy.to_string strategy))
                    true
                    (Cert.ok cert && cert.Cert.refuted = 0
                     && cert.Cert.proved > 0))
              strategies)
          [ "maxcut-line"; "uccsd-n4" ]);
    case "uncertified compile carries no certificate" (fun () ->
        let c = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let r = Qcc.Compiler.compile ~strategy:Qcc.Strategy.Isa c in
        check_bool "none" true (r.Qcc.Compiler.certificate = None));
    case "a refuted boundary raises Certification_failed" (fun () ->
        let ctx = Qcert.Pipeline.create ~strategy:"test" () in
        let src = Circuit.make 1 [ Gate.h 0 ] in
        let dst = Circuit.make 1 [ Gate.x 0 ] in
        (try
           Qcert.Pipeline.lower ctx ~src ~dst;
           Alcotest.fail "expected Certification_failed"
         with Cert.Certification_failed cert ->
           check_bool "not ok" false (Cert.ok cert);
           check_int "one refuted" 1 cert.Cert.refuted));
    case "certificate json carries the schema and boundaries" (fun () ->
        let c = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let r =
          Qcc.Compiler.compile ~certify:true ~strategy:Qcc.Strategy.Cls c
        in
        match r.Qcc.Compiler.certificate with
        | None -> Alcotest.fail "no certificate"
        | Some cert ->
          let j = Qobs.Json.to_string (Cert.to_json cert) in
          let contains needle hay =
            let nl = String.length needle and hl = String.length hay in
            let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
            go 0
          in
          check_bool "schema" true (contains "qcc.certificate/1" j);
          check_bool "boundaries" true (contains "\"boundaries\"" j));
    case "certify emits spans and counters" (fun () ->
        let obs = Qobs.Trace.create () in
        let metrics = Qobs.Metrics.create () in
        let c = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let r =
          Qcc.Compiler.compile ~certify:true ~obs ~metrics
            ~strategy:Qcc.Strategy.Isa c
        in
        check_bool "certificate present" true
          (r.Qcc.Compiler.certificate <> None);
        (match r.Qcc.Compiler.trace with
         | None -> Alcotest.fail "no trace"
         | Some root ->
           let rec spans (s : Qobs.Span.t) =
             s.Qobs.Span.name
             :: List.concat_map spans (Qobs.Span.children s)
           in
           check_bool "certify span present" true
             (List.exists
                (fun n ->
                  String.length n >= 8 && String.sub n 0 8 = "certify-")
                (spans root)));
        check_bool "proved counter" true
          (Qobs.Metrics.counter_value metrics "qcert.proved" > 0)) ]

(* ---- outcome bookkeeping ---- *)

let certificate_cases =
  [ case "merge_outcomes sums facts and keeps diagnostics" (fun () ->
        let a = Cert.outcome ~method_:"x" 2 in
        let b =
          Cert.outcome ~method_:"y" 1 ~skipped:1
            ~diags:[ D.make ~code:"QC001" ~severity:D.Warning "w" ]
        in
        let m = Cert.merge_outcomes [ a; b ] in
        check_int "checks" 3 m.Cert.checks;
        check_int "skipped" 1 m.Cert.skipped;
        check_int "diags" 1 (List.length m.Cert.diags));
    case "summary line counts boundaries" (fun () ->
        let o = Cert.outcome ~method_:"m" 1 in
        let b = Cert.boundary_of_outcome ~name:"n" ~claim:"c" o in
        let t = Cert.make ~strategy:"isa" [ b ] in
        check_bool "certified" true (Cert.ok t);
        check_int "proved" 1 t.Cert.proved) ]

let suites =
  [ ("qcert.domain", domain_cases);
    ("qcert.reorder", reorder_cases);
    ("qcert.regroup", regroup_cases);
    ("qcert.route", route_cases);
    ("qcert.rewrite", rewrite_cases);
    ("qcert.compiler", compiler_cases);
    ("qcert.certificate", certificate_cases) ]
