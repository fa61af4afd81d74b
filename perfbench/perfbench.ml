(* The repository benchmark: compiles one named workload for a fixed
   number of seconds, checks every compiled cell against the pins in
   perfbench/pins.json, and prints one JSON result line (the last line of
   standard output).

     perfbench.exe --workload agg-deep --seed 1 --seconds 30 --trace 0
     perfbench.exe --workload qaoa-ladder --seed 1 --seconds 30 --trace 1
     perfbench.exe --workload agg-deep --check     # certify every cell once
     perfbench.exe --pins > perfbench/pins.json    # regenerate the pins

   Everything is timed from outside the compiler: calls into
   [Qcc.Compiler] and the public functions of each layer, plus the spans
   and [Qobs.Metrics] counters the compiler already exports. See
   README.md for the workloads and the metric definitions. *)

module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy
module Metrics = Qobs.Metrics
module Span = Qobs.Span
module Json = Qobs.Json

let fail fmt = Printf.ksprintf failwith fmt
let ms_since t0 = Qobs.Clock.elapsed_ns t0 /. 1e6

(* ---- statistics ---- *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* least-squares slope of log y against log x over the points with y > 0;
   0 when fewer than two distinct sizes remain *)
let log_slope points =
  let pts =
    List.filter_map
      (fun (x, y) -> if y > 0. then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun acc p -> acc +. f p) 0. pts /. n in
  if List.length (List.sort_uniq compare (List.map fst pts)) < 2 then 0.
  else
    let mx = mean fst and my = mean snd in
    mean (fun (x, y) -> (x -. mx) *. (y -. my))
    /. mean (fun (x, _) -> (x -. mx) *. (x -. mx))

let ratio a b = if b = 0. then 0. else a /. b

(* ---- host speed ---- *)

(* On a shared VM the host's speed changes by up to 2x for seconds to
   minutes at a time (other tenants on the same cores), invisibly to the
   guest. One yardstick round is a fixed piece of benchmark-owned work,
   timed right before and right after each compiler call; each compile
   time is scaled by [yard_ref_ms] over the mean of the two rounds, that
   is, expressed in seconds of a host on which one round takes
   [yard_ref_ms]. The round mixes integer arithmetic with Map, Hashtbl
   and list work because that mix slows down with the host about as
   much as the compiler does, which neither part does alone. It uses
   only the standard library, so no change to the compiler moves it. *)
module Int_map = Map.Make (Int)

let yard_ref_ms = 20.

let yard_round () =
  let s = ref 0 in
  for i = 0 to 5_000_000 do
    s := !s + (i * i)
  done;
  let h = Hashtbl.create 4096 and m = ref Int_map.empty in
  for i = 0 to 20_000 do
    let k = (i * 7919) land 16383 in
    Hashtbl.replace h k (float_of_int i);
    m := Int_map.add ((i * 31) land 32767) [ i; k ] !m
  done;
  let l = Int_map.fold (fun k v acc -> (k + List.length v) :: acc) !m [] in
  let sorted =
    List.sort compare (List.rev_map (fun x -> (x * 13) mod 1001) l)
  in
  !s + List.length sorted + Hashtbl.length h

(* wall milliseconds of one yardstick round *)
let yardstick_ms () =
  let t0 = Qobs.Clock.now_ns () in
  ignore (Sys.opaque_identity (yard_round ()));
  ms_since t0

(* the factor that turns seconds measured between rounds [before] and
   [after] into reference-host seconds *)
let host_scale before after = yard_ref_ms /. ((before +. after) /. 2.)

(* ---- inputs ---- *)

let sqrt_circuit n =
  (* the suite's recipe: a perfect square, so the oracle marks one root *)
  let root = (1 lsl (n - 1)) + 1 in
  (Qapps.Sqrt_poly.build ~n ~target:(root * root) ()).Qapps.Sqrt_poly.circuit

(* Suite instances rebuilt from the generators Qapps.Suite uses, so set-up
   can be repeated inside one process; [setup] checks each rebuilt
   circuit against the suite's own. *)
let suite_recipes =
  [ ("sqrt-n3", fun () -> sqrt_circuit 3);
    ("sqrt-n4", fun () -> sqrt_circuit 4);
    ("uccsd-n6", fun () -> Qapps.Uccsd.circuit 6);
    ("qft-n12", fun () -> Qapps.Qft.circuit 12);
    ("qft-n20", fun () -> Qapps.Qft.circuit 20);
    ( "maxcut-reg4",
      fun () -> Qapps.Qaoa.circuit (Qapps.Graphs.regular4 ~seed:11 30) );
    ("ising-n60", fun () -> Qapps.Ising.circuit 60) ]

let suite names =
  List.map (fun name -> (name, List.assoc name suite_recipes)) names

(* The QAOA width ladder: one random 4-regular graph per width, compiled
   with angles drawn from [--seed] as one step of a variational loop
   would move them. Seeds fold onto [angle_sets] angle pairs so every
   input has a pin. *)
let ladder_graph_seed = 1
let angle_sets = 16
let angle_set seed = ((seed mod angle_sets) + angle_sets) mod angle_sets

let angles seed =
  let d = float_of_int (angle_set seed - (angle_sets / 2)) in
  ( Qapps.Qaoa.default_gamma +. (0.01 *. d),
    Qapps.Qaoa.default_beta -. (0.005 *. d) )

let ladder seed =
  let gamma, beta = angles seed in
  List.map
    (fun n ->
      ( Printf.sprintf "qaoa-n%d-a%d" n (angle_set seed),
        fun () ->
          Qapps.Qaoa.circuit ~gamma ~beta
            (Qapps.Graphs.regular4 ~seed:ladder_graph_seed n) ))
    [ 32; 64; 128 ]

(* ---- workloads ---- *)

type call =
  | Per_cell of Strategy.t list
      (** one [Compiler.compile] per (circuit, strategy), cold memos *)
  | All_strategies  (** one sequential [Compiler.compile_all] per circuit *)

type workload = {
  name : string;
  circuits : int -> (string * (unit -> Qgate.Circuit.t)) list;
  call : call;  (** how the workload calls the compiler *)
}

let workloads =
  [ { name = "agg-deep";
      circuits =
        (fun _ -> suite [ "sqrt-n3"; "uccsd-n6"; "qft-n12"; "maxcut-reg4" ]);
      call = Per_cell [ Strategy.Aggregation; Strategy.Cls_aggregation ] };
    { name = "gate-sched";
      circuits =
        (fun _ -> suite [ "sqrt-n4"; "qft-n20"; "uccsd-n6"; "ising-n60" ]);
      call = Per_cell [ Strategy.Isa; Strategy.Cls; Strategy.Cls_hand ] };
    { name = "qaoa-ladder"; circuits = ladder; call = All_strategies } ]

let nproc = Domain.recommended_domain_count ()
let jobs = min 2 nproc

(* ---- one compiled cell ---- *)

type pass_row = {
  pass : string;
  ns : float;
  major_words : float;
  collections : int;
}

(* what the benchmark keeps of one compile: the figures it checks and
   times, not the compiled program, so memory does not grow with the
   number of passes *)
type cell = {
  label : string;
  strategy : Strategy.t;
  latency : float;  (** ns *)
  merges : int;
  swaps : int;
  compile_time : float;  (** s *)
  scaled_time : float;
      (** [compile_time] in reference-host seconds (see [host_scale]);
          equal to it where no yardstick was taken *)
  refuted : int;  (** refuted certificate boundaries (certified compiles) *)
  passes : pass_row list;  (** empty unless the pass was traced *)
}

let rows_of_span root =
  List.map
    (fun (s : Span.t) ->
      let major_words, collections =
        match s.Span.gc with
        | Some g -> (g.Span.major_words, g.Span.major_collections)
        | None -> (0., 0)
      in
      { pass = s.Span.name; ns = Span.duration_ns s; major_words; collections })
    (Span.children root)

let cell_of ~label ~strategy ~passes (r : Compiler.result) =
  { label;
    strategy;
    latency = r.Compiler.latency;
    merges = r.Compiler.n_merges;
    swaps = r.Compiler.n_swaps_inserted;
    compile_time = r.Compiler.compile_time;
    scaled_time = r.Compiler.compile_time;
    refuted =
      (match r.Compiler.certificate with
       | Some cert -> cert.Qcert.Certificate.refuted
       | None -> 0);
    passes }

(* ---- one pass over the workload ---- *)

type run = {
  wall_s : float;  (** wall time of the compiler calls only *)
  cells : cell list;  (** every cell whose compiler call returned *)
  raised : (string * int) list;
      (** (what raised, cells it took down) for each call that raised *)
  metrics : Metrics.t;  (** the pass's registry ([disabled] untraced) *)
  yards : float list;  (** the pass's yardstick rounds, ms *)
}

let n_strategies = List.length Strategy.all

(* the state of a fresh process: cold memos and a compacted heap *)
let cold () =
  Compiler.reset_all_memos ();
  Gc.compact ()

(* one yardstick round from that state, so that what the compiler left
   behind does not weigh on it *)
let cold_yard () =
  cold ();
  yardstick_ms ()

(* one compiler call from the state of a fresh process: its result and
   wall seconds, or what it raised *)
let cold_call f =
  cold ();
  let t0 = Qobs.Clock.now_ns () in
  match f () with
  | r -> Ok (r, Qobs.Clock.elapsed_ns t0 /. 1e9)
  | exception e -> Error (Printexc.to_string e)

let compile_pass ~traced ?(certify = false) w circuits =
  let metrics = if traced then Metrics.create () else Metrics.disabled in
  let obs () = if traced then Qobs.Trace.create () else Qobs.Trace.disabled in
  let wall = ref 0. and raised = ref [] in
  (* yardstick rounds, latest first; each call sits between two of them *)
  let yards = ref [ cold_yard () ] in
  (* the cells a call covering [n] cells returns ([keep]), scaled by the
     rounds around it; a raise fails all [n] *)
  let timed ~n what f keep =
    let kept =
      match cold_call f with
      | Ok (r, s) ->
        wall := !wall +. s;
        keep r
      | Error e ->
        raised := (what ^ ": " ^ e, n) :: !raised;
        []
    in
    let before = List.hd !yards and after = cold_yard () in
    yards := after :: !yards;
    let scale = host_scale before after in
    List.map (fun c -> { c with scaled_time = c.compile_time *. scale }) kept
  in
  let cell label (strategy, (r : Compiler.result)) =
    let passes =
      match r.Compiler.trace with Some root -> rows_of_span root | None -> []
    in
    cell_of ~label ~strategy ~passes r
  in
  let cells =
    match w.call with
    | Per_cell strategies ->
      List.concat_map
        (fun (label, circuit) ->
          List.concat_map
            (fun strategy ->
              timed ~n:1
                (label ^ " " ^ Strategy.to_string strategy)
                (fun () ->
                  Compiler.compile ~certify ~obs:(obs ()) ~metrics ~strategy
                    circuit)
                (fun result -> [ cell label (strategy, result) ]))
            strategies)
        circuits
    | All_strategies ->
      List.concat_map
        (fun (label, circuit) ->
          timed ~n:n_strategies label
            (fun () ->
              Compiler.compile_all ~certify ~obs:(obs ()) ~metrics circuit)
            (List.map (cell label)))
        circuits
  in
  { wall_s = !wall; cells; raised = !raised; metrics; yards = !yards }

(* The workload's cells as one [Compiler.compile_matrix ~jobs] pool, from
   cold memos: the benchmark's one run of [Qcc.Parallel] and the shared
   compute-once stage cache. Only for [All_strategies] workloads, whose
   cells are exactly the matrix's. *)
let matrix_pass circuits =
  match cold_call (fun () -> Compiler.compile_matrix ~jobs circuits) with
  | Ok (matrix, wall_s) ->
    let cells =
      List.concat_map
        (fun (label, results) ->
          List.map
            (fun (strategy, r) -> cell_of ~label ~strategy ~passes:[] r)
            results)
        matrix
    in
    { wall_s; cells; raised = []; metrics = Metrics.disabled; yards = [] }
  | Error e ->
    { wall_s = 0.;
      cells = [];
      raised =
        [ ( "compile_matrix: " ^ e,
            n_strategies * List.length circuits ) ];
      metrics = Metrics.disabled;
      yards = [] }

(* ---- correctness ---- *)

type pin = { latency_ns : float; merges : int; swaps : int }

let pins_file = Filename.concat "perfbench" "pins.json"

let load_pins () =
  let ic = open_in_bin pins_file in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let cells =
    match Json.of_string text with
    | Ok j -> (
      match Json.member "cells" j with
      | Some (Json.List cells) -> cells
      | _ -> fail "%s: no cells" pins_file)
    | Error e -> fail "%s: %s" pins_file e
  in
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun c ->
      let get k = Json.member k c in
      match (get "circuit", get "strategy", get "latency_ns", get "merges",
             get "swaps") with
      | ( Some (Json.Str circuit),
          Some (Json.Str strategy),
          Some (Json.Float latency_ns),
          Some (Json.Int merges),
          Some (Json.Int swaps) ) ->
        Hashtbl.replace tbl (circuit, strategy) { latency_ns; merges; swaps }
      | _ -> fail "%s: malformed cell" pins_file)
    cells;
  tbl

(* why a compiled cell is wrong, if it is *)
let cell_error pins c =
  match Hashtbl.find_opt pins (c.label, Strategy.to_string c.strategy) with
  | None -> Some "no pin"
  | Some p ->
    if not (Float.is_finite c.latency && c.latency > 0.) then
      Some (Printf.sprintf "latency %h is not finite" c.latency)
    else if c.latency <> p.latency_ns then
      Some (Printf.sprintf "latency %.17g, pinned %.17g" c.latency p.latency_ns)
    else if c.merges <> p.merges then
      Some (Printf.sprintf "merges %d, pinned %d" c.merges p.merges)
    else if c.swaps <> p.swaps then
      Some (Printf.sprintf "swaps %d, pinned %d" c.swaps p.swaps)
    else if c.refuted > 0 then
      Some (Printf.sprintf "%d refuted boundaries" c.refuted)
    else None

(* Partition check: a traced cell's spans are exactly the strategy's
   passes, and together they do not exceed its compile time; the
   residual is what lies outside the spans. *)
let residual_ms c =
  let names = List.map (fun p -> p.pass) c.passes in
  if names <> Compiler.passes c.strategy then
    fail "partition: %s %s spans [%s], expected [%s]" c.label
      (Strategy.to_string c.strategy)
      (String.concat "," names)
      (String.concat "," (Compiler.passes c.strategy));
  let spans_ms =
    List.fold_left (fun acc p -> acc +. (p.ns /. 1e6)) 0. c.passes
  in
  let total_ms = c.compile_time *. 1e3 in
  let residual = total_ms -. spans_ms in
  if residual < -1e-3 then
    fail "partition: %s %s spans %.6f ms exceed compile_time %.6f ms" c.label
      (Strategy.to_string c.strategy) spans_ms total_ms;
  residual

(* ---- the outside-in aggregate replay ---- *)

type replay = {
  cost_calls : int;
  cost_ms : float;
  agg_ms : float;
  agg_commute_ms : float;
}

let route_names =
  [ "structural"; "memo"; "phase_poly"; "tableau"; "dense"; "oversize" ]

let hist_sum m name =
  match Metrics.hist_value m name with Some h -> h.Metrics.sum | None -> 0.

let commute_ms m =
  List.fold_left
    (fun acc r -> acc +. hist_sum m ("commute.route." ^ r ^ ".ms"))
    0. route_names

(* Re-run the [aggregation] chain through public calls, timing the cost
   closure handed to the aggregator and scoping a registry to the
   aggregator alone; merges and makespan must equal the compiler's. *)
let replay_aggregation circuit (expected : cell) =
  Compiler.reset_all_memos ();
  let config = Compiler.default_config in
  let lowered = Qgate.Decompose.to_isa circuit in
  let topology = Qcc.Backend.topology_for config lowered in
  let placement = Qmap.Placement.initial topology lowered in
  let physical, _ = Qmap.Router.route_circuit ~placement ~topology lowered in
  let model = Qcc.Backend.block_cost config in
  let gdg = Qgdg.Gdg.of_circuit ~latency:model physical in
  let contractions = Qgdg.Diagonal.detect_and_contract ~latency:model gdg in
  let cost_calls = ref 0 and cost_ms = ref 0. in
  let cost gates =
    incr cost_calls;
    let t0 = Qobs.Clock.now_ns () in
    let t = model gates in
    cost_ms := !cost_ms +. ms_since t0;
    t
  in
  let m = Metrics.create () in
  let t0 = Qobs.Clock.now_ns () in
  let stats =
    Metrics.with_ambient m (fun () ->
        Qagg.Aggregator.run ~width_limit:config.Compiler.width_limit ~cost gdg)
  in
  let agg_ms = ms_since t0 in
  let schedule = Qsched.Asap.schedule gdg in
  let merges = contractions + stats.Qagg.Aggregator.merges in
  let makespan = schedule.Qsched.Schedule.makespan in
  if merges <> expected.merges || makespan <> expected.latency then
    fail "replay: %s merges %d makespan %.17g, compiler %d %.17g"
      expected.label merges makespan expected.merges expected.latency;
  { cost_calls = !cost_calls;
    cost_ms = !cost_ms;
    agg_ms;
    agg_commute_ms = commute_ms m }

(* ---- set-up ---- *)

(* Build every circuit at least [setup_min_reps] times and for at least
   [setup_min_s] seconds, in batches of at least [setup_batch_s] between
   yardstick rounds, after one untimed build; returns the circuits and
   the median build time in reference-host seconds (see [host_scale]).
   The heap is not compacted in between: a compacted heap makes the next
   build fault fresh pages in, whose cost on a VM varies far more than
   the build. The suite instances must equal Qapps.Suite's. *)
let setup_min_reps = 5
let setup_min_s = 1.
let setup_batch_s = 0.02

let setup w seed =
  let build () =
    let t0 = Qobs.Clock.now_ns () in
    let built =
      List.map (fun (label, make) -> (label, make ())) (w.circuits seed)
    in
    (built, Qobs.Clock.elapsed_ns t0 /. 1e9)
  in
  (* raw build times until the batch reaches [setup_batch_s] *)
  let rec batch times total =
    let built, t = build () in
    let times = t :: times and total = total +. t in
    if total < setup_batch_s then batch times total else (built, times, total)
  in
  let rec go scaled total before =
    let built, times, t = batch [] 0. in
    let after = yardstick_ms () in
    let scale = host_scale before after in
    let scaled = List.rev_map (fun x -> x *. scale) times @ scaled
    and total = total +. t in
    if List.length scaled < setup_min_reps || total < setup_min_s then
      go scaled total after
    else (built, median scaled)
  in
  ignore (build ());
  let built, setup_s = go [] 0. (yardstick_ms ()) in
  List.iter
    (fun (label, c) ->
      match Qapps.Suite.find label with
      | b ->
        if Lazy.force b.Qapps.Suite.circuit <> c then
          fail "setup: %s differs from Qapps.Suite" label
      | exception Not_found -> ())
    built;
  (built, setup_s)

(* ---- metrics ---- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else go ()
      in
      go ())

let pass_groups =
  [ "lower"; "handopt"; "gdg"; "detect"; "cls"; "place"; "route"; "rebuild";
    "aggregate"; "schedule" ]

let group_of pass =
  match pass with "handopt-pre" | "handopt-post" -> "handopt" | p -> p

let pass_sum ~f cells group =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc p -> if group_of p.pass = group then acc +. f p else acc)
        acc c.passes)
    0. cells

let pass_ms cells g = pass_sum ~f:(fun p -> p.ns /. 1e6) cells g

(* Σ per-cell compile time over (jobs × wall) of the [matrix_pass], and its
   slowest cell; both 0 on workloads that have none *)
let parallel_metrics = function
  | None -> (0., 0.)
  | Some run ->
    ( ratio
        (List.fold_left (fun acc c -> acc +. c.compile_time) 0. run.cells)
        (float_of_int jobs *. run.wall_s),
      List.fold_left (fun acc c -> max acc c.compile_time) 0. run.cells )

(* Per-layer metrics of one traced pass. [sizes] maps circuit labels to
   lowered gate counts; [replays] covers the aggregation cells;
   [parallel] is (efficiency, slowest job) of the matrix pass. *)
let layer_metrics ~sizes ~replays ~parallel run =
  let m = run.metrics in
  let count name = float_of_int (Metrics.counter_value m name) in
  let labels = List.sort_uniq compare (List.map (fun c -> c.label) run.cells) in
  let growth g =
    log_slope
      (List.map
         (fun label ->
           ( List.assoc label sizes,
             pass_ms (List.filter (fun c -> c.label = label) run.cells) g ))
         labels)
  in
  let routes = List.map (fun r -> count ("commute.route." ^ r)) route_names in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. replays in
  let cost_ms = sum (fun r -> r.cost_ms) in
  let agg_commute_ms = sum (fun r -> r.agg_commute_ms) in
  List.concat
    [ List.map (fun g -> (g ^ ".ms", "ms", pass_ms run.cells g)) pass_groups;
      [ ( "residual.ms",
          "ms",
          List.fold_left (fun acc c -> acc +. residual_ms c) 0. run.cells );
        ("agg.attempted", "count", count "agg.attempted");
        ("agg.accepted", "count", count "agg.accepted");
        ( "agg.accept_ratio",
          "ratio",
          ratio (count "agg.accepted") (count "agg.attempted") );
        ("agg.vetoed_monotonic", "count", count "agg.vetoed_monotonic");
        ("agg.rounds", "count", count "agg.rounds");
        ("commute.ms", "ms", commute_ms m);
        ("commute.dense.ms", "ms", hist_sum m "commute.route.dense.ms") ];
      List.map2
        (fun r n -> ("commute.route." ^ r, "count", n))
        route_names routes;
      [ ( "commute.memo_hit_ratio",
          "ratio",
          ratio (count "commute.route.memo") (List.fold_left ( +. ) 0. routes)
        );
        ("cost.calls", "count", sum (fun r -> float_of_int r.cost_calls));
        ("cost.ms", "ms", cost_ms);
        ( "latency_model.block_memo_hit_ratio",
          "ratio",
          ratio
            (count "latency_model.block_memo_hits")
            (count "latency_model.block_queries") );
        ("aggregate.commute.ms", "ms", agg_commute_ms);
        ( "aggregate.rest.ms",
          "ms",
          sum (fun r -> r.agg_ms) -. agg_commute_ms -. cost_ms );
        ("cls.matching_rounds", "count", count "cls.matching_rounds") ];
      List.map
        (fun r -> ("detect.route." ^ r, "count", count ("detect.route." ^ r)))
        [ "structural"; "memo"; "phase_poly"; "dense"; "oversize" ];
      [ ("route.swaps", "count", count "route.swaps");
        ( "cache.hit_ratio",
          "ratio",
          ratio
            (count "pipeline.cache.hit")
            (count "pipeline.cache.hit" +. count "pipeline.cache.miss") );
        ("parallel.efficiency", "ratio", fst parallel);
        ("parallel.job_max_s", "s", snd parallel);
        ( "gc.major_collections",
          "count",
          List.fold_left
            (fun acc c ->
              List.fold_left
                (fun acc p -> acc +. float_of_int p.collections)
                acc c.passes)
            0. run.cells ) ];
      List.map (fun g -> (g ^ ".growth_exp", "slope", growth g)) pass_groups;
      List.map
        (fun g ->
          ( g ^ ".major_mwords",
            "Mword",
            pass_sum ~f:(fun p -> p.major_words /. 1e6) run.cells g ))
        pass_groups ]

(* each cell's median [time] over the passes, in seconds, keyed by
   (label, strategy) in first-seen order *)
let cell_medians ~time plain =
  let samples = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          let key = (c.label, c.strategy) in
          match Hashtbl.find_opt samples key with
          | Some ts -> Hashtbl.replace samples key (time c :: ts)
          | None ->
            order := key :: !order;
            Hashtbl.replace samples key [ time c ])
        r.cells)
    plain;
  List.rev_map (fun key -> (key, median (Hashtbl.find samples key))) !order

(* the median yardstick round over [runs], ms *)
let yard_median runs = median (List.concat_map (fun r -> r.yards) runs)

(* the per-layer result: each metric's median over the traced passes,
   plus the traced/untraced wall ratio *)
let per_layer ~sizes ~replays ~parallel ~plain traced =
  let wall runs = median (List.map (fun r -> r.wall_s) runs) in
  let per_pass = List.map (layer_metrics ~sizes ~replays ~parallel) traced in
  List.mapi
    (fun i (name, unit, _) ->
      let value l =
        let _, _, v = List.nth l i in
        v
      in
      (name, unit, median (List.map value per_pass)))
    (List.hd per_pass)
  @ [ ("trace_overhead", "ratio", ratio (wall traced) (wall plain));
      ( "compile_raw_s",
        "s",
        List.fold_left
          (fun acc (_, t) -> acc +. t)
          0.
          (cell_medians ~time:(fun c -> c.compile_time) plain) );
      ("host.yardstick_ms", "ms", yard_median plain) ]

let end_to_end ~setup_s ~peak_mb ~ok_ratio plain =
  let per_cell =
    List.map snd (cell_medians ~time:(fun c -> c.scaled_time) plain)
  in
  [ ("compile_s", "s", List.fold_left ( +. ) 0. per_cell);
    ( "compile_geomean_ms",
      "ms",
      geomean (List.map (fun t -> t *. 1e3) per_cell) );
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MB", peak_mb);
    ( "pulse_ns_geomean",
      "ns_model",
      geomean (List.map (fun c -> c.latency) (List.hd plain).cells) );
    ("ok_ratio", "ratio", ok_ratio) ]

(* ---- output ---- *)

let json_number v =
  if not (Float.is_finite v) then fail "non-finite metric value %h" v;
  Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* The pins file: every cell of every workload, ladder cells for every
   angle set. Latencies print with 17 digits so they read back exactly. *)
let write_pins () =
  let rows = ref [] in
  let add w circuits =
    let run = compile_pass ~traced:false w circuits in
    if run.raised <> [] then fail "pins: %s" (fst (List.hd run.raised));
    List.iter
      (fun c ->
        let key = (c.label, Strategy.to_string c.strategy) in
        if not (List.mem_assoc key !rows) then
          rows :=
            ( key,
              Printf.sprintf
                "{\"circuit\": %S, \"strategy\": %S, \"latency_ns\": %.17g, \
                 \"merges\": %d, \"swaps\": %d}"
                c.label (snd key) c.latency
                c.merges c.swaps )
            :: !rows)
      run.cells
  in
  let build w seed = List.map (fun (l, f) -> (l, f ())) (w.circuits seed) in
  List.iter
    (fun w ->
      match w.call with
      | Per_cell _ -> add w (build w 0)
      | All_strategies ->
        for set = 0 to angle_sets - 1 do
          add w (build w set)
        done)
    workloads;
  let cells = List.sort compare !rows |> List.map snd in
  Printf.printf "{\"cells\": [\n  %s\n]}\n" (String.concat ",\n  " cells)

(* cells attempted and failed over [runs], reporting each failure *)
let tally pins runs =
  let cell_errors =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun c ->
            cell_error pins c
            |> Option.map (fun e ->
                   Printf.sprintf "%s %s: %s" c.label
                     (Strategy.to_string c.strategy) e))
          r.cells)
      runs
  in
  let raised = List.concat_map (fun r -> r.raised) runs in
  let lost = List.fold_left (fun acc (_, n) -> acc + n) 0 raised in
  List.iter
    (fun e -> Printf.eprintf "perfbench: FAIL %s\n%!" e)
    (List.map fst raised @ cell_errors);
  ( lost + List.fold_left (fun acc r -> acc + List.length r.cells) 0 runs,
    lost + List.length cell_errors )

(* one row per cell: its figures and median compile time over [plain],
   as measured and in reference-host seconds *)
let print_cells plain =
  let raw = cell_medians ~time:(fun c -> c.compile_time) plain
  and scaled = cell_medians ~time:(fun c -> c.scaled_time) plain in
  List.iter
    (fun c ->
      let key = (c.label, c.strategy) in
      Printf.printf
        "cell %-16s %-16s latency_ns %12.3f merges %5d swaps %4d compile_ms \
         %10.3f scaled_ms %10.3f\n"
        c.label
        (Strategy.to_string c.strategy)
        c.latency c.merges c.swaps
        (List.assoc key raw *. 1e3)
        (List.assoc key scaled *. 1e3))
    (List.hd plain).cells;
  Printf.printf "passes compile_s %s yardstick_ms %.3f\n"
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.4f" r.wall_s) plain))
    (yard_median plain)

(* ---- main ---- *)

let machine_line ~w ~seed ~commit =
  Printf.printf
    "{\"machine\": {\"workload\": %S, \"seed\": %d, \"angle_set\": %s, \
     \"nproc\": %d, \"jobs\": %d, \"ocaml\": %S, \"ocamlrunparam\": %S, \
     \"commit\": %S}}\n%!"
    w.name seed
    (match w.call with
     | Per_cell _ -> "null"
     | All_strategies -> string_of_int (angle_set seed))
    nproc jobs
    Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    commit

(* Repeat passes until [seconds] would be exceeded by another one (at
   least one pass of each kind); traced runs alternate untraced and
   traced passes so both see the same machine state. Also returns the
   peak resident memory after set-up and the first pass: later passes
   only add heap fragmentation that a one-shot compiler process never
   sees, and their number depends on the host's speed. *)
let measure ~seconds ~trace w circuits =
  let t0 = Qobs.Clock.now_ns () in
  let elapsed () = Qobs.Clock.elapsed_ns t0 /. 1e9 in
  let first = compile_pass ~traced:false w circuits in
  let peak_mb = peak_rss_mb () in
  let rec loop plain traced =
    let traced =
      if trace then compile_pass ~traced:true w circuits :: traced else traced
    in
    let per_round = elapsed () /. float_of_int (List.length plain) in
    if elapsed () +. per_round <= seconds then
      loop (compile_pass ~traced:false w circuits :: plain) traced
    else (List.rev plain, List.rev traced, peak_mb)
  in
  loop [ first ] []

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. in
  let trace = ref 0 and check = ref false and pins_mode = ref false in
  let commit = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--check", Arg.Set check, " certified compile of every cell, once");
      ("--pins", Arg.Set pins_mode, " print fresh pins for every cell");
      ("--commit", Arg.Set_string commit, "SHA recorded in the machine line") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !pins_mode then write_pins ()
  else begin
    let w =
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> w
      | None ->
        fail "unknown workload %S (expected %s)" !workload
          (String.concat " | " (List.map (fun w -> w.name) workloads))
    in
    let pins = load_pins () in
    let circuits, setup_s = setup w !seed in
    let sizes =
      List.map
        (fun (l, c) ->
          (l, float_of_int (Qgate.Circuit.n_gates (Qgate.Decompose.to_isa c))))
        circuits
    in
    machine_line ~w ~seed:!seed ~commit:!commit;
    let plain, traced, peak_mb =
      if !check then
        let pass = compile_pass ~traced:false ~certify:true w circuits in
        ([ pass ], [], peak_rss_mb ())
      else measure ~seconds:!seconds ~trace:(!trace = 1) w circuits
    in
    (* the traced run also replays aggregation, certifies every cell and,
       on a compile_all workload, compiles its cells once as a job pool *)
    let replays, certified, matrix =
      if !trace <> 1 then ([], [], None)
      else
        let first = List.hd traced in
        ( List.filter_map
            (fun c ->
              if c.strategy = Strategy.Aggregation then
                Some (replay_aggregation (List.assoc c.label circuits) c)
              else None)
            first.cells,
          [ compile_pass ~traced:false ~certify:true w circuits ],
          match w.call with
          | All_strategies -> Some (matrix_pass circuits)
          | Per_cell _ -> None )
    in
    let attempted, failed =
      tally pins (plain @ traced @ certified @ Option.to_list matrix)
    in
    print_cells plain;
    let metrics =
      if !trace = 1 then
        per_layer ~sizes ~replays ~parallel:(parallel_metrics matrix) ~plain
          traced
      else
        end_to_end ~setup_s ~peak_mb
          ~ok_ratio:
            (ratio (float_of_int (attempted - failed)) (float_of_int attempted))
          plain
    in
    print_result ~correct:(failed = 0) ~attempted ~failed metrics
  end
