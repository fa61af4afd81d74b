(* qobs: spans, metrics, JSON round-trips, and the compile-with-trace
   acceptance criterion (every pass appears exactly once per strategy). *)

module Json = Qobs.Json
module Span = Qobs.Span
module Trace = Qobs.Trace
module Metrics = Qobs.Metrics

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- clock ---- *)

let test_clock_monotonic () =
  let prev = ref (Qobs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Qobs.Clock.now_ns () in
    checkb "non-decreasing" true (t >= !prev);
    prev := t
  done;
  let t0 = Qobs.Clock.now_ns () in
  checkb "elapsed non-negative" true (Qobs.Clock.elapsed_ns t0 >= 0.)

(* ---- spans ---- *)

let test_span_nesting () =
  let tr = Trace.create () in
  let result =
    Trace.with_span tr "root" (fun () ->
        Trace.attr_int tr "gates" 7;
        Trace.with_span tr "child-a" (fun () -> ());
        Trace.with_span tr "child-b" (fun () ->
            Trace.with_span tr "grandchild" (fun () -> ()));
        17)
  in
  checki "body result" 17 result;
  match Trace.roots tr with
  | [ root ] ->
    check Alcotest.string "root name" "root" root.Span.name;
    checki "span count" 4 (Span.count root);
    (match Span.children root with
     | [ a; b ] ->
       check Alcotest.string "first child" "child-a" a.Span.name;
       check Alcotest.string "second child" "child-b" b.Span.name;
       checki "grandchild" 1 (List.length (Span.children b))
     | cs -> Alcotest.failf "expected 2 children, got %d" (List.length cs));
    checki "find_all" 1 (List.length (Span.find_all ~name:"grandchild" root));
    (match List.assoc_opt "gates" root.Span.attrs with
     | Some (Span.Int 7) -> ()
     | _ -> Alcotest.fail "attr gates=7 missing")
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs)

let test_span_timing () =
  let tr = Trace.create () in
  ignore
    (Trace.with_span tr "outer" (fun () ->
         Trace.with_span tr "inner" (fun () ->
             (* burn a little time so durations are visibly ordered *)
             let acc = ref 0. in
             for k = 1 to 10_000 do
               acc := !acc +. sqrt (float_of_int k)
             done;
             !acc)));
  match Trace.roots tr with
  | [ outer ] ->
    let inner = List.hd (Span.children outer) in
    checkb "outer stop >= start" true (outer.Span.stop_ns >= outer.Span.start_ns);
    checkb "inner within outer" true
      (inner.Span.start_ns >= outer.Span.start_ns
       && inner.Span.stop_ns <= outer.Span.stop_ns);
    checkb "outer >= inner duration" true
      (Span.duration_ns outer >= Span.duration_ns inner)
  | _ -> Alcotest.fail "expected 1 root"

let test_span_exception_safety () =
  let tr = Trace.create () in
  (try
     Trace.with_span tr "outer" (fun () ->
         Trace.with_span tr "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  match Trace.roots tr with
  | [ outer ] ->
    checkb "spans closed despite raise" true
      (List.for_all
         (fun (s : Span.t) -> s.Span.stop_ns >= s.Span.start_ns)
         (outer :: Span.children outer));
    (* collector still usable: the stack unwound *)
    ignore (Trace.with_span tr "after" (fun () -> ()));
    checki "new root recorded" 2 (List.length (Trace.roots tr))
  | _ -> Alcotest.fail "expected 1 root after exception"

(* ---- metrics ---- *)

let test_metrics_arithmetic () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  checki "counter" 5 (Metrics.counter_value m "c");
  Metrics.gauge m "g" 1.5;
  Metrics.gauge m "g" 2.5;
  check Alcotest.(option (float 1e-9)) "gauge last-write-wins" (Some 2.5)
    (Metrics.gauge_value m "g");
  Metrics.observe m "h" 1.;
  Metrics.observe m "h" 3.;
  Metrics.observe m "h" 2.;
  (match Metrics.hist_value m "h" with
   | Some { Metrics.n; sum; min; max } ->
     checki "hist n" 3 n;
     check Alcotest.(float 1e-9) "hist sum" 6. sum;
     check Alcotest.(float 1e-9) "hist min" 1. min;
     check Alcotest.(float 1e-9) "hist max" 3. max
   | None -> Alcotest.fail "histogram missing");
  (* kind fixed by first use: wrong-kind ops are ignored *)
  Metrics.gauge m "c" 9.;
  checki "counter survives gauge write" 5 (Metrics.counter_value m "c");
  check Alcotest.(list string) "names sorted" [ "c"; "g"; "h" ]
    (Metrics.names m)

let test_disabled_noop () =
  ignore (Trace.with_span Trace.disabled "x" (fun () -> 5));
  checki "disabled trace stays empty" 0
    (List.length (Trace.roots Trace.disabled));
  checkb "disabled trace flag" false (Trace.enabled Trace.disabled);
  Metrics.incr Metrics.disabled "c";
  Metrics.gauge Metrics.disabled "g" 1.;
  Metrics.observe Metrics.disabled "h" 1.;
  check Alcotest.(list string) "disabled metrics stay empty" []
    (Metrics.names Metrics.disabled);
  checki "disabled counter_value" 0 (Metrics.counter_value Metrics.disabled "c")

let test_ambient () =
  (* default ambient is the null registry: ticks vanish *)
  Metrics.tick "ambient.test";
  checki "default ambient disabled" 0
    (Metrics.counter_value (Metrics.ambient ()) "ambient.test");
  let m = Metrics.create () in
  Metrics.with_ambient m (fun () ->
      Metrics.tick "ambient.test";
      Metrics.tick ~by:2 "ambient.test");
  checki "ticks landed in installed registry" 3
    (Metrics.counter_value m "ambient.test");
  (* restored after the scope, also on exceptions *)
  (try Metrics.with_ambient m (fun () -> failwith "expected")
   with Failure _ -> ());
  checkb "ambient restored" true (Metrics.ambient () == Metrics.disabled)

let test_hist_quantiles () =
  let m = Metrics.create () in
  for v = 1 to 100 do
    Metrics.observe m "h" (float_of_int v)
  done;
  let q p =
    match Metrics.hist_quantile m "h" p with
    | Some v -> v
    | None -> Alcotest.fail "quantile missing"
  in
  (* extremes are exact *)
  check Alcotest.(float 1e-9) "q0 = min" 1. (q 0.);
  check Alcotest.(float 1e-9) "q1 = max" 100. (q 1.);
  (* interior quantiles are monotone, inside [min,max], and within one
     bucket ratio (sqrt 2) of the true rank value *)
  let p50 = q 0.5 and p90 = q 0.9 and p99 = q 0.99 in
  checkb "monotone" true (1. <= p50 && p50 <= p90 && p90 <= p99 && p99 <= 100.);
  let within true_v est =
    est >= true_v /. 1.5 && est <= Float.min 100. (true_v *. 1.5)
  in
  checkb (Printf.sprintf "p50 near 50 (got %g)" p50) true (within 50. p50);
  checkb (Printf.sprintf "p90 near 90 (got %g)" p90) true (within 90. p90);
  checkb (Printf.sprintf "p99 near 99 (got %g)" p99) true (within 99. p99);
  (* single-sample histogram: every quantile collapses to the sample *)
  Metrics.observe m "one" 7.;
  List.iter
    (fun p ->
      check Alcotest.(option (float 1e-9)) "single-sample quantile" (Some 7.)
        (Metrics.hist_quantile m "one" p))
    [ 0.; 0.5; 0.9; 0.99; 1. ]

let test_span_alloc () =
  let tr = Trace.create () in
  ignore
    (Trace.with_span tr "alloc" (fun () ->
         (* allocate enough that the minor-heap delta is unambiguous even
            though no minor collection runs inside the span *)
         Sys.opaque_identity (List.init 1000 (fun i -> (i, i)))));
  match Trace.roots tr with
  | [ root ] ->
    (match root.Span.gc with
     | None -> Alcotest.fail "span must carry a GC delta"
     | Some g ->
       checkb
         (Printf.sprintf "minor words counted (got %g)" g.Span.minor_words)
         true
         (g.Span.minor_words >= 2000.);
       checkb "major collections non-negative" true (g.Span.major_collections >= 0));
    (* the delta is exported under "alloc" *)
    (match Json.member "alloc" (Span.to_json root) with
     | Some (Json.Obj _) -> ()
     | _ -> Alcotest.fail "to_json must export the alloc object")
  | _ -> Alcotest.fail "expected 1 root"

(* ---- JSON ---- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> x = y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
         xs ys
  | a, b -> a = b

let test_json_roundtrip () =
  let samples =
    [ Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 3.5;
      Json.Float 0.001;
      Json.Float 1e22;
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ \n\t and control \001";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
          ("b", Json.Obj [ ("nested", Json.Bool false) ]) ] ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      match Json.of_string s with
      | Ok j' ->
        checkb (Printf.sprintf "round-trip %s" s) true (json_equal j j')
      | Error e -> Alcotest.failf "parse of %s failed: %s" s e)
    samples;
  (* floats always reparse as Float, never Int *)
  (match Json.of_string (Json.to_string (Json.Float 4.0)) with
   | Ok (Json.Float 4.0) -> ()
   | _ -> Alcotest.fail "Float 4.0 must stay a float");
  (* non-finite floats degrade to null *)
  check Alcotest.string "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  (* parser: escapes and \u *)
  (match Json.of_string "\"a\\u0041\\n\"" with
   | Ok (Json.Str "aA\n") -> ()
   | _ -> Alcotest.fail "\\u escape");
  (match Json.of_string "{\"k\": [1, 2.5e1, true], \"m\": null}" with
   | Ok
       (Json.Obj
          [ ("k", Json.List [ Json.Int 1; Json.Float 25.; Json.Bool true ]);
            ("m", Json.Null) ]) -> ()
   | _ -> Alcotest.fail "mixed document");
  (match Json.of_string "{\"k\": }" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "malformed input must be rejected")

let test_chrome_export () =
  let tr = Trace.create () in
  ignore
    (Trace.with_span tr "compile" (fun () ->
         Trace.attr_str tr "strategy" "isa";
         Trace.with_span tr "lower" (fun () -> ());
         Trace.with_span tr "schedule" (fun () -> ())));
  let doc = Trace.to_chrome tr in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome doc does not reparse: %s" e
  | Ok parsed ->
    (match Json.member "traceEvents" parsed with
     | Some (Json.List events) ->
       checkb "has events" true (List.length events >= 3);
       let complete =
         List.filter
           (fun e -> Json.member "ph" e = Some (Json.Str "X"))
           events
       in
       checki "one X event per span" 3 (List.length complete);
       List.iter
         (fun e ->
           List.iter
             (fun field ->
               checkb
                 (Printf.sprintf "event has %s" field)
                 true
                 (Json.member field e <> None))
             [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
         complete
     | _ -> Alcotest.fail "traceEvents missing")

(* ---- golden byte-pins: exporters must be byte-deterministic ---- *)

let test_metrics_json_golden () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "a.count";
  Metrics.gauge m "b.gauge" 1.5;
  Metrics.observe m "c.hist" 2.;
  let expected =
    "{\"a.count\":3,\"b.gauge\":1.5,\"c.hist\":{\"count\":1,\"max\":2.0,"
    ^ "\"mean\":2.0,\"min\":2.0,\"p50\":2.0,\"p90\":2.0,\"p99\":2.0,"
    ^ "\"sum\":2.0}}"
  in
  check Alcotest.string "metrics json bytes" expected
    (Json.to_string (Metrics.to_json m));
  (* re-export is byte-identical *)
  check Alcotest.string "re-export stable"
    (Json.to_string (Metrics.to_json m))
    (Json.to_string (Metrics.to_json m))

let test_chrome_golden () =
  (* synthetic span tree with pinned clock values: the exporter assigns
     ids in pre-order and sorts attrs by key, so the bytes are fixed *)
  let root = Span.make ~name:"root" ~start_ns:1000. in
  root.Span.stop_ns <- 5000.;
  let kid = Span.make ~name:"kid" ~start_ns:2000. in
  kid.Span.stop_ns <- 3000.;
  Span.add_attr kid "zeta" (Span.Int 9);
  Span.add_attr kid "alpha" (Span.Str "x");
  kid.Span.gc <-
    Some { Span.minor_words = 10.; major_words = 0.; major_collections = 1 };
  root.Span.rev_children <- [ kid ];
  let bytes =
    String.concat "\n"
      (List.map Json.to_string (Span.to_chrome_events root))
  in
  let expected =
    "{\"name\":\"root\",\"cat\":\"compile\",\"ph\":\"X\",\"id\":1,"
    ^ "\"ts\":1.0,\"dur\":4.0,\"pid\":1,\"tid\":1,\"args\":{}}"
    ^ "\n"
    ^ "{\"name\":\"kid\",\"cat\":\"compile\",\"ph\":\"X\",\"id\":2,"
    ^ "\"ts\":2.0,\"dur\":1.0,\"pid\":1,\"tid\":1,\"args\":{"
    ^ "\"alpha\":\"x\",\"zeta\":9,"
    ^ "\"major_collections\":1,\"major_words\":0.0,\"minor_words\":10.0}}"
  in
  check Alcotest.string "chrome event bytes" expected bytes

let test_chrome_roundtrip () =
  let tr = Trace.create () in
  ignore
    (Trace.with_span tr "compile" (fun () ->
         Trace.with_span tr "lower" (fun () -> ());
         Trace.with_span tr "detect" (fun () ->
             Trace.with_span tr "contract" (fun () -> ()));
         Trace.with_span tr "schedule" (fun () -> ())));
  let parsed =
    match Json.of_string (Json.to_string (Trace.to_chrome tr)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome export does not reparse: %s" e
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List evs) ->
      List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let field name e =
    match Json.member name e with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Alcotest.failf "event missing %s" name
  in
  let name e =
    match Json.member "name" e with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.fail "event missing name"
  in
  (* pre-order ids: 1..n in emission order *)
  List.iteri
    (fun k e -> checki "sequential id" (k + 1) (int_of_float (field "id" e)))
    events;
  check Alcotest.(list string) "pre-order names"
    [ "compile"; "lower"; "detect"; "contract"; "schedule" ]
    (List.map name events);
  (* reconstruct the tree from interval containment and compare to the
     recorded spans: same nesting, monotone child start times *)
  let within child parent =
    field "ts" child >= field "ts" parent
    && field "ts" child +. field "dur" child
       <= field "ts" parent +. field "dur" parent +. 1e-6
  in
  let compile_e = List.hd events in
  let rest = List.tl events in
  List.iter
    (fun e -> checkb (name e ^ " within compile") true (within e compile_e))
    rest;
  let contract_e = List.find (fun e -> name e = "contract") events in
  let detect_e = List.find (fun e -> name e = "detect") events in
  checkb "contract within detect" true (within contract_e detect_e);
  let starts =
    List.map (fun e -> field "ts" e)
      (List.filter (fun e -> name e <> "contract") rest)
  in
  checkb "sibling starts monotone" true
    (List.sort compare starts = starts)

(* ---- ledger + stats round-trip ---- *)

let test_ledger_stats_roundtrip () =
  let tr = Trace.create () in
  ignore
    (Trace.with_span tr "compile" (fun () ->
         Trace.with_span tr "lower" (fun () -> ());
         Trace.with_span tr "schedule" (fun () -> ())));
  let root =
    match Trace.last_span tr with
    | Some s -> s
    | None -> Alcotest.fail "no root span"
  in
  let m = Metrics.create () in
  Metrics.incr m ~by:10 "commute.checks";
  Metrics.incr m ~by:4 "commute.route.memo";
  Metrics.incr m ~by:6 "commute.route.dense";
  Metrics.incr m ~by:5 "detect.checks";
  Metrics.incr m ~by:2 "detect.route.memo";
  Metrics.incr m ~by:3 "detect.route.phase_poly";
  let row1 =
    Qobs.Ledger.row ~source_label:"t1" ~strategy:"cls" ~backend_digest:"b"
      ~source_digest:"s" ~chain_digest:"c" ~latency_ns:100.
      ~compile_time_s:0.5 ~cache_hits:2 ~cache_misses:1 ~trace:root
      ~metrics:m ()
  in
  let row2 =
    Qobs.Ledger.row ~source_label:"t2" ~strategy:"isa" ~backend_digest:"b"
      ~source_digest:"s" ~chain_digest:"c2" ~latency_ns:50.
      ~compile_time_s:0.25 ~cache_hits:0 ~cache_misses:3
      ~metrics:(Metrics.create ()) ()
  in
  let path = Filename.temp_file "qobs_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ledger = Qobs.Ledger.open_file path in
      Qobs.Ledger.append ledger row1;
      Qobs.Ledger.append ledger row2;
      Qobs.Ledger.append ledger
        (Json.Obj [ ("schema", Json.Str "not-a-ledger/9") ]);
      Qobs.Ledger.close ledger;
      let rows =
        match Qobs.Ledger.read_file path with
        | Ok rows -> rows
        | Error e -> Alcotest.failf "read_file: %s" e
      in
      checki "three rows read back" 3 (List.length rows);
      let t = Qobs.Stats.of_rows rows in
      checki "ledger rows" 2 t.Qobs.Stats.rows;
      checki "skipped foreign schema" 1 t.Qobs.Stats.skipped;
      checki "cache hits" 2 t.Qobs.Stats.cache_hits;
      checki "cache misses" 4 t.Qobs.Stats.cache_misses;
      check Alcotest.(float 1e-9) "hit rate" (2. /. 6.) (Qobs.Stats.hit_rate t);
      checki "commute checks" 10 t.Qobs.Stats.commute_checks;
      (* route mix survives the round-trip and sums to the check count *)
      let route name =
        match List.assoc_opt name t.Qobs.Stats.routes with
        | Some n -> n
        | None -> Alcotest.failf "route %s missing" name
      in
      checki "memo route" 4 (route "commute.route.memo");
      checki "dense route" 6 (route "commute.route.dense");
      checki "route sum = checks" t.Qobs.Stats.commute_checks
        (route "commute.route.memo" + route "commute.route.dense");
      checki "detect checks" 5 t.Qobs.Stats.detect_checks;
      checki "detect route sum = detect checks" t.Qobs.Stats.detect_checks
        (Qobs.Stats.detect_route_sum t);
      (* per-pass aggregation: both passes of row1, once each *)
      List.iter
        (fun pass ->
          match
            List.find_opt
              (fun (p : Qobs.Stats.pass_stat) -> p.Qobs.Stats.pass = pass)
              t.Qobs.Stats.passes
          with
          | Some p ->
            checki (pass ^ " calls") 1 p.Qobs.Stats.calls;
            checkb (pass ^ " wall >= 0") true (p.Qobs.Stats.wall_ns >= 0.)
          | None -> Alcotest.failf "pass %s not aggregated" pass)
        [ "lower"; "schedule" ];
      (* stats json carries its schema marker *)
      (match Json.member "schema" (Qobs.Stats.to_json t) with
       | Some (Json.Str s) -> check Alcotest.string "stats schema" "qcc.stats/1" s
       | _ -> Alcotest.fail "stats schema missing");
      (* a self-diff is flat: every entry at ratio 1 *)
      let d = Qobs.Stats.diff ~base:t ~cur:t in
      List.iter
        (fun (e : Qobs.Stats.diff_entry) ->
          check Alcotest.(float 1e-9)
            (e.Qobs.Stats.name ^ " self-ratio")
            1.
            (Qobs.Stats.ratio e))
        d.Qobs.Stats.delta)

(* every ledger row's schema field is the pinned constant *)
let test_ledger_schema_pinned () =
  check Alcotest.string "ledger schema" "qcc.ledger/1" Qobs.Ledger.schema;
  let row =
    Qobs.Ledger.row ~strategy:"isa" ~backend_digest:"b" ~source_digest:"s"
      ~chain_digest:"c" ~latency_ns:1. ~compile_time_s:0.1 ~cache_hits:0
      ~cache_misses:0 ~metrics:Metrics.disabled ()
  in
  match Json.member "schema" row with
  | Some (Json.Str s) -> check Alcotest.string "row schema" "qcc.ledger/1" s
  | _ -> Alcotest.fail "row schema missing"

(* ---- route attribution invariant ---- *)

let test_route_sum_invariant () =
  let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
  let metrics = Metrics.create () in
  ignore (Qcc.Compiler.compile ~metrics ~strategy:Qcc.Strategy.Cls_aggregation circuit);
  let sum_routes prefix =
    List.fold_left
      (fun acc name ->
        if
          String.length name > String.length prefix
          && String.sub name 0 (String.length prefix) = prefix
          && not (Filename.check_suffix name ".ms")
        then acc + Metrics.counter_value metrics name
        else acc)
      0 (Metrics.names metrics)
  in
  let checks = Metrics.counter_value metrics "commute.checks" in
  checkb "commutation queries happened" true (checks > 0);
  checki "commute routes sum to checks" checks (sum_routes "commute.route.");
  let detect_checks = Metrics.counter_value metrics "detect.checks" in
  checkb "detection queries happened" true (detect_checks > 0);
  checki "detect routes sum to checks" detect_checks
    (sum_routes "detect.route.")

(* ---- compile-with-trace acceptance ---- *)

let compile_traced strategy circuit =
  let obs = Trace.create () in
  let metrics = Metrics.create () in
  let r = Qcc.Compiler.compile ~obs ~metrics ~strategy circuit in
  (r, metrics)

let test_trace_passes_once_each () =
  let circuit =
    Qgate.Decompose.to_isa (Qapps.Qaoa.triangle_example ())
  in
  List.iter
    (fun strategy ->
      let r, _ = compile_traced strategy circuit in
      match r.Qcc.Compiler.trace with
      | None -> Alcotest.fail "traced compile must return a trace"
      | Some root ->
        check Alcotest.string "root span" "compile" root.Span.name;
        List.iter
          (fun pass ->
            checki
              (Printf.sprintf "%s: pass %s exactly once"
                 (Qcc.Strategy.to_string strategy) pass)
              1
              (List.length (Span.find_all ~name:pass root)))
          (Qcc.Compiler.passes strategy);
        (* no stray pass spans: children of the root are exactly the
           strategy's pass list, in order *)
        check Alcotest.(list string) "pass order"
          (Qcc.Compiler.passes strategy)
          (List.map (fun (s : Span.t) -> s.Span.name) (Span.children root)))
    Qcc.Strategy.all

let test_compile_metrics_populated () =
  let circuit =
    Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line")
  in
  let _, metrics =
    compile_traced Qcc.Strategy.Cls_aggregation circuit
  in
  let names = Metrics.names metrics in
  checkb
    (Printf.sprintf "at least 8 metrics, got %d: %s" (List.length names)
       (String.concat ", " names))
    true
    (List.length names >= 8);
  List.iter
    (fun expected ->
      checkb (Printf.sprintf "metric %s present" expected) true
        (List.mem expected names))
    [ "lower.gates"; "commute.checks"; "cls.matched"; "agg.attempted";
      "latency_model.gate_queries"; "compile.latency_ns" ]

(* the agg.phase.* timers run inside the aggregate span and never
   overlap, so their sums partition part of it: what is left is the
   "phase rest" row of [qcc profile] *)
let test_agg_phases_within_span () =
  let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
  let r, metrics = compile_traced Qcc.Strategy.Cls_aggregation circuit in
  let span_ms =
    match r.Qcc.Compiler.trace with
    | None -> Alcotest.fail "traced compile must return a trace"
    | Some root -> (
      match Span.find_all ~name:"aggregate" root with
      | [ s ] -> Span.duration_ns s /. 1e6
      | spans -> Alcotest.failf "%d aggregate spans" (List.length spans))
  in
  let phase_sum =
    List.fold_left
      (fun acc phase ->
        match Metrics.hist_value metrics ("agg.phase." ^ phase ^ ".ms") with
        | None -> Alcotest.failf "agg.phase.%s.ms missing" phase
        | Some h ->
          checkb (phase ^ " sum >= 0") true (h.Metrics.sum >= 0.);
          acc +. h.Metrics.sum)
      0.
      [ "groups"; "slack"; "universe"; "score" ]
  in
  checkb
    (Printf.sprintf "phases %.3f ms <= aggregate span %.3f ms" phase_sum
       span_ms)
    true (phase_sum <= span_ms)

let test_untraced_compile_has_no_trace () =
  let circuit =
    Qgate.Decompose.to_isa (Qapps.Qaoa.triangle_example ())
  in
  let r = Qcc.Compiler.compile ~strategy:Qcc.Strategy.Isa circuit in
  checkb "no trace by default" true (r.Qcc.Compiler.trace = None)

let suites =
  [ ("qobs.clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
    ("qobs.span",
     [ Alcotest.test_case "nesting" `Quick test_span_nesting;
       Alcotest.test_case "timing" `Quick test_span_timing;
       Alcotest.test_case "exception-safety" `Quick test_span_exception_safety ]);
    ("qobs.metrics",
     [ Alcotest.test_case "arithmetic" `Quick test_metrics_arithmetic;
       Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
       Alcotest.test_case "span-alloc" `Quick test_span_alloc;
       Alcotest.test_case "disabled-noop" `Quick test_disabled_noop;
       Alcotest.test_case "ambient" `Quick test_ambient ]);
    ("qobs.json",
     [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
       Alcotest.test_case "chrome-export" `Quick test_chrome_export;
       Alcotest.test_case "metrics-golden" `Quick test_metrics_json_golden;
       Alcotest.test_case "chrome-golden" `Quick test_chrome_golden;
       Alcotest.test_case "chrome-roundtrip" `Quick test_chrome_roundtrip ]);
    ("qobs.ledger",
     [ Alcotest.test_case "stats-roundtrip" `Quick test_ledger_stats_roundtrip;
       Alcotest.test_case "schema-pinned" `Quick test_ledger_schema_pinned;
       Alcotest.test_case "route-sum" `Quick test_route_sum_invariant ]);
    ("qobs.compile",
     [ Alcotest.test_case "passes-once-each" `Quick test_trace_passes_once_each;
       Alcotest.test_case "metrics-populated" `Quick
         test_compile_metrics_populated;
       Alcotest.test_case "agg-phases-within-span" `Quick
         test_agg_phases_within_span;
       Alcotest.test_case "untraced-no-trace" `Quick
         test_untraced_compile_has_no_trace ]) ]
