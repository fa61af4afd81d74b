module Gate = Qgate.Gate

let max_check_width = 8

type klass = Identity | Diagonal | Clifford | Phase_linear | General

let klass_to_string = function
  | Identity -> "identity"
  | Diagonal -> "diagonal"
  | Clifford -> "clifford"
  | Phase_linear -> "phase-linear"
  | General -> "general"

type t = {
  digest : string;
  support : int list;
  klass : klass;
  in_clifford : bool;
  in_phase_poly : bool;
  all_diagonal : bool;
}

let all_diagonal gs = List.for_all (fun g -> Gate.is_diagonal_kind g.Gate.kind) gs

(* order-preserving relabelling of a gate list onto 0..|support|-1 *)
let relabel_onto support gs =
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gs

let support_of gs = List.sort_uniq compare (List.concat_map Gate.qubits gs)

(* Every memo table of the detection layer lives in one per-domain slot
   (Domain.DLS): each entry is a pure function of its content-addressed
   key, so per-domain re-warming keeps results deterministic while no
   write can ever race across domains.

   - [classify]: digest of a relabelled block -> its summary payload.
   - [pair]: (digest_a, embedding_a, digest_b, embedding_b) -> pairwise
     commutation decision (the joint overlap pattern matters, so the two
     block digests alone are not a sufficient key; the embeddings — each
     support's positions inside the sorted joint support — restore
     exactly the information of the relabelled pair).
   - [diagonal]: digest of a relabelled prefix -> is the composed
     unitary diagonal (the detect pass's per-prefix question).
   - [unitary]: content-addressed block unitaries on their own support,
     bounded by total cached matrix cells and cleared wholesale when
     full. *)
type memo_state = {
  classify : (string, klass * bool * bool * bool) Hashtbl.t;
  pair : (string, bool) Hashtbl.t;
  diagonal : (string, bool) Hashtbl.t;
  unitary : (string, Qnum.Cmat.t) Hashtbl.t;
  mutable unitary_cells : int;
}

let memos =
  Qobs.Domain_safe.Local.make (fun () ->
      { classify = Hashtbl.create 1024;
        pair = Hashtbl.create 4096;
        diagonal = Hashtbl.create 1024;
        unitary = Hashtbl.create 256;
        unitary_cells = 0 })
  [@@domain_safety domain_local]

(* idempotent; clears the calling domain's tables only *)
let reset_memos () =
  let m = Qobs.Domain_safe.Local.get memos in
  Hashtbl.reset m.classify;
  Hashtbl.reset m.pair;
  Hashtbl.reset m.diagonal;
  Hashtbl.reset m.unitary;
  m.unitary_cells <- 0

let unitary_memo_cell_cap = 4_000_000

let unitary_on_own gates =
  let m = Qobs.Domain_safe.Local.get memos in
  let own = support_of gates in
  let k = List.length own in
  let local = relabel_onto own gates in
  let key = Marshal.to_string local [] in
  let u =
    match Hashtbl.find_opt m.unitary key with
    | Some u -> u
    | None ->
      Qobs.Metrics.tick "commute.dense.builds";
      let u = Qgate.Unitary.of_gates ~n_qubits:k local in
      if m.unitary_cells > unitary_memo_cell_cap then begin
        Hashtbl.reset m.unitary;
        m.unitary_cells <- 0
      end;
      m.unitary_cells <- m.unitary_cells + (1 lsl (2 * k));
      Hashtbl.replace m.unitary key u;
      u
  in
  (own, u)

(* ---- summaries ---- *)

let classify ~n_qubits local =
  let pp = Qdomain.Phase_poly.of_gates ~n_qubits local in
  let tb = Qdomain.Tableau.of_gates ~n_qubits local in
  let in_phase_poly = pp <> None in
  let in_clifford = tb <> None in
  let identity =
    (match tb with
     | Some t -> Qdomain.Tableau.equal t (Qdomain.Tableau.identity n_qubits)
     | None -> false)
    ||
    match pp with
    | Some p -> Qdomain.Phase_poly.equal p (Qdomain.Phase_poly.identity n_qubits)
    | None -> false
  in
  let all_diag = all_diagonal local in
  let diagonal =
    all_diag
    ||
    match pp with
    | Some p -> Qdomain.Phase_poly.is_linear_identity p
    | None -> false
  in
  let klass =
    if identity then Identity
    else if diagonal then Diagonal
    else if in_clifford then Clifford
    else if in_phase_poly then Phase_linear
    else General
  in
  (klass, in_clifford, in_phase_poly, all_diag)

let of_gates gs =
  let support = support_of gs in
  let local = relabel_onto support gs in
  let digest = Digest.to_hex (Digest.string (Marshal.to_string local [])) in
  let m = Qobs.Domain_safe.Local.get memos in
  let payload, hit =
    match Hashtbl.find_opt m.classify digest with
    | Some payload -> (payload, true)
    | None ->
      let payload = classify ~n_qubits:(List.length support) local in
      Hashtbl.replace m.classify digest payload;
      (payload, false)
  in
  let klass, in_clifford, in_phase_poly, all_diagonal = payload in
  ({ digest; support; klass; in_clifford; in_phase_poly; all_diagonal }, hit)

(* ---- pairwise commutation ---- *)

(* Route attribution: every query that ticks "commute.checks" resolves
   through exactly one route — structural / memo / phase_poly / tableau /
   dense / oversize — ticking "commute.route.<r>" and recording the
   query's wall time in "commute.route.<r>.ms". The per-route counters
   therefore sum to the decision count, which [qcc stats] checks and
   reports as the route mix. The clock is read only when a metrics
   registry is ambient, so the disabled path stays one branch. *)
let now_if_metrics () =
  if Qobs.Metrics.enabled (Qobs.Metrics.ambient ()) then
    Some (Qobs.Clock.now_ns ())
  else None

let route_structural = ("commute.route.structural", "commute.route.structural.ms")
let route_memo = ("commute.route.memo", "commute.route.memo.ms")
let route_phase_poly = ("commute.route.phase_poly", "commute.route.phase_poly.ms")
let route_tableau = ("commute.route.tableau", "commute.route.tableau.ms")
let route_dense = ("commute.route.dense", "commute.route.dense.ms")
let route_oversize = ("commute.route.oversize", "commute.route.oversize.ms")

let route (name, hist) t0 =
  Option.iter
    (fun t0 ->
      Qobs.Metrics.tick name;
      Qobs.Metrics.record hist (Qobs.Clock.elapsed_ns t0 /. 1e6))
    t0

(* ---- the dense route ---- *)

let dense_eps = 1e-9
let refute_margin = 1e-7

(* The probe vector v for a width: seeded, complex, dense, and scaled to
   ‖v‖₁ = Σ_j |v_j| = 1 (complex moduli). *)
let probe n_qubits =
  let dim = 1 lsl n_qubits in
  let rng = Random.State.make [| 0x9e3779b9; n_qubits |] in
  let draw () = Random.State.float rng 2. -. 1. in
  let re = Array.init dim (fun _ -> draw ()) in
  let im = Array.init dim (fun _ -> draw ()) in
  let l1 = ref 0. in
  for j = 0 to dim - 1 do
    l1 := !l1 +. Float.hypot re.(j) im.(j)
  done;
  (Array.map (fun x -> x /. !l1) re, Array.map (fun x -> x /. !l1) im)

(* Refute-first: does the probe alone prove that [a] and [b] fail the
   dense check below? With M = AB − BA and the probe's ‖v‖₁ = 1,
   |(Mv)_i| = |Σ_j M_ij v_j| ≤ max_j |M_ij| · ‖v‖₁ = max_j |M_ij|, so a
   residual |(ABv − BAv)_i| above eps means some entry of M exceeds eps,
   which is exactly what the entrywise check rejects. Both sides are
   computed in floating point: the unitaries and the probe each carry
   rounding error of order (gate count)·2^n·1e-16, far below the margin,
   so a residual above eps + margin only occurs when the entrywise check
   would also fail. A non-finite residual proves nothing (the entrywise
   comparison is vacuous on nan), so it never refutes. *)
let refutes ~n_qubits a_gates b_gates =
  let abr, abi = probe n_qubits in
  let bar = Array.copy abr and bai = Array.copy abi in
  (* AB acts on v as b's gates then a's, BA as a's then b's *)
  Qgate.Unitary.apply_gates ~n_qubits b_gates ~re:abr ~im:abi;
  Qgate.Unitary.apply_gates ~n_qubits a_gates ~re:abr ~im:abi;
  Qgate.Unitary.apply_gates ~n_qubits a_gates ~re:bar ~im:bai;
  Qgate.Unitary.apply_gates ~n_qubits b_gates ~re:bar ~im:bai;
  let finite = ref true and worst = ref 0. in
  for i = 0 to Array.length abr - 1 do
    let r = Float.hypot (abr.(i) -. bar.(i)) (abi.(i) -. bai.(i)) in
    if Float.is_finite r then worst := Float.max !worst r
    else finite := false
  done;
  !finite && !worst > dense_eps +. refute_margin

(* the dense comparison on already-relabelled gates, support 0..n-1: the
   probe first, and only an unrefuted pair pays for both unitaries and
   the entrywise compare *)
let dense_on ~n_qubits a_gates b_gates =
  if refutes ~n_qubits a_gates b_gates then begin
    Qobs.Metrics.tick "commute.dense.refuted";
    false
  end
  else begin
    let (targets_a, ua), (targets_b, ub) =
      Qobs.Metrics.timed "commute.dense.build.ms" (fun () ->
          let own_a = unitary_on_own a_gates in
          (own_a, unitary_on_own b_gates))
    in
    Qobs.Metrics.timed "commute.dense.compare.ms" (fun () ->
        Qnum.Cmat.commute_embedded ~eps:dense_eps ~n_qubits ~targets_a ua
          ~targets_b ub)
  end

type pair_route = Pair_phase_poly | Pair_tableau | Pair_undecided

(* The algebraic pair check behind [decide] and [algebraic_blocks],
   dispatched on the summaries' fragment-membership flags instead of
   re-attempting each abstract domain: a concatenation lies in a
   gate-wise fragment iff both blocks do, and fragment membership is
   label-independent, so the flag dispatch attempts exactly the domains
   the old attempt-and-fail dispatch would have succeeded on, with
   identical results.

   CNOT+diagonal fragment: the phase polynomials of a·b and b·a pin both
   operators exactly (global phase included), so strict equality decides
   commutation with no dense algebra at all.

   Clifford fragment: tableau equality decides equality of a·b and b·a up
   to global phase; when the tableaus agree the residual global phase is
   read off one statevector column (|0…0⟩), far cheaper than the 2^n×2^n
   products. Genuine phase mismatches are multiples of π/4 on amplitudes
   of modulus ≥ 2^{-n/2}, so the 1e-6 tolerance only absorbs float
   noise. *)
let algebraic_pair ~in_phase_poly ~in_clifford ~n_qubits a b =
  let pp =
    if not in_phase_poly then None
    else
      match
        ( Qdomain.Phase_poly.of_gates ~n_qubits (a @ b),
          Qdomain.Phase_poly.of_gates ~n_qubits (b @ a) )
      with
      | Some p_ab, Some p_ba ->
        Some (Qdomain.Phase_poly.strict_equal ~eps:1e-9 p_ab p_ba)
      | _ -> None
  in
  match pp with
  | Some r -> (r, Pair_phase_poly)
  | None ->
    if not in_clifford then (None, Pair_undecided)
    else (
      match
        ( Qdomain.Tableau.of_gates ~n_qubits (a @ b),
          Qdomain.Tableau.of_gates ~n_qubits (b @ a) )
      with
      | Some t_ab, Some t_ba ->
        let r =
          if not (Qdomain.Tableau.equal t_ab t_ba) then Some false
          else begin
            let s_ab = Qgate.Unitary.state_of_gates ~n_qubits (a @ b) in
            let s_ba = Qgate.Unitary.state_of_gates ~n_qubits (b @ a) in
            let ok = ref true in
            Array.iteri
              (fun i z ->
                if Qnum.Cx.abs (Qnum.Cx.sub z s_ba.(i)) > 1e-6 then ok := false)
              s_ab;
            Some !ok
          end
        in
        (r, Pair_tableau)
      | _ -> (None, Pair_undecided))

(* positions of a summary's support inside the sorted joint support —
   together with the two digests this determines the relabelled pair
   exactly, so the digest-pair memo key is as precise as marshalling the
   relabelled gate lists themselves, without rebuilding them *)
let embedding joint support =
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) joint;
  List.map (fun q -> Hashtbl.find local q) support

let disjoint sa sb =
  not (List.exists (fun q -> List.mem q sb.support) sa.support)
let diagonal_klass s = s.klass = Identity || s.klass = Diagonal

(* Shared slow path: support width gate, then the klass-pair shortcut
   (two provably diagonal operators commute exactly), then the
   digest-pair memo, then the flag-dispatched algebraic domains, then the
   dense comparison. Callers have already dispatched the structural
   shortcuts. *)
let decide ~t0 sa sb a_gates b_gates =
  let support = List.sort_uniq compare (sa.support @ sb.support) in
  let n_qubits = List.length support in
  if n_qubits > max_check_width then begin
    route route_oversize t0;
    false
  end
  else if diagonal_klass sa && diagonal_klass sb then begin
    (* both operators are exactly diagonal (the affine test behind the
       Diagonal klass is exact boolean algebra) or scalar, so they
       commute as operators — every downstream check would return true *)
    route route_structural t0;
    true
  end
  else begin
    let key =
      Marshal.to_string
        (sa.digest, embedding support sa.support,
         sb.digest, embedding support sb.support)
        []
    in
    let m = Qobs.Domain_safe.Local.get memos in
    match Hashtbl.find_opt m.pair key with
    | Some r ->
      route route_memo t0;
      r
    | None ->
      let a = relabel_onto support a_gates in
      let b = relabel_onto support b_gates in
      let decision, taken =
        algebraic_pair
          ~in_phase_poly:(sa.in_phase_poly && sb.in_phase_poly)
          ~in_clifford:(sa.in_clifford && sb.in_clifford)
          ~n_qubits a b
      in
      let r =
        match (decision, taken) with
        | Some r, Pair_phase_poly ->
          route route_phase_poly t0;
          r
        | Some r, Pair_tableau ->
          route route_tableau t0;
          r
        | _ ->
          Qobs.Metrics.record "commute.dense.width" (float_of_int n_qubits);
          let r = dense_on ~n_qubits a b in
          route route_dense t0;
          r
      in
      Hashtbl.replace m.pair key r;
      r
  end

let blocks ?sa ?sb a b =
  Qobs.Metrics.tick "commute.checks";
  let t0 = now_if_metrics () in
  match (a, b) with
  | [], _ | _, [] ->
    route route_structural t0;
    true
  | _ ->
    let sa = match sa with Some s -> s | None -> fst (of_gates a) in
    let sb = match sb with Some s -> s | None -> fst (of_gates b) in
    if disjoint sa sb || (sa.all_diagonal && sb.all_diagonal) then begin
      route route_structural t0;
      true
    end
    else decide ~t0 sa sb a b

(* The algebraic domains stay polynomial in the support width, so the
   algebraic-only query reaches wider than the dense route's cap. *)
let max_algebraic_width = 12

(* The algebraic-only query behind the QL070 lint: the structural and
   klass-pair shortcuts come before the width cap, and no memo or metric
   is kept — the lint asks each adjacent pair once. *)
let algebraic_blocks ~sa ~sb a b =
  if disjoint sa sb || (diagonal_klass sa && diagonal_klass sb) then Some true
  else
    let joint = List.sort_uniq compare (sa.support @ sb.support) in
    let n_qubits = List.length joint in
    if n_qubits > max_algebraic_width then None
    else
      fst
        (algebraic_pair
           ~in_phase_poly:(sa.in_phase_poly && sb.in_phase_poly)
           ~in_clifford:(sa.in_clifford && sb.in_clifford)
           ~n_qubits (relabel_onto joint a) (relabel_onto joint b))

(* ---- incremental diagonal-prefix scanning (the detect pass) ---- *)

(* Route attribution mirrors the pairwise counters: every prefix decision
   ticks "detect.checks" and exactly one "detect.route.<r>" counter —
   structural / memo / phase_poly / dense / oversize — with a matching
   [.ms] histogram, so the per-route counters sum to the decision count
   ([qcc stats] checks the partition). *)
let detect_structural = ("detect.route.structural", "detect.route.structural.ms")
let detect_memo = ("detect.route.memo", "detect.route.memo.ms")
let detect_phase_poly = ("detect.route.phase_poly", "detect.route.phase_poly.ms")
let detect_dense = ("detect.route.dense", "detect.route.dense.ms")
let detect_oversize = ("detect.route.oversize", "detect.route.oversize.ms")

(* One scan composes a growing gate sequence once, so deciding every
   prefix of an n-gate run costs O(n) domain updates instead of the
   reference's O(n²) rebuild-and-recheck:

   - gates are relabelled onto first-seen order, which is prefix-stable
     (extending the run never changes the relabelling of an earlier
     gate) and label-independent, so congruent runs anywhere on the
     register share their per-prefix decisions;
   - the phase polynomial of the relabelled prefix is composed in place
     by [Phase_poly.apply_gate] and dies permanently once a gate escapes
     the CNOT+diagonal fragment (fragment membership is gate-wise);
   - the memo key is a byte buffer of the relabelled gates (encoded per
     gate by [add_gate_key], whose fixed-length-per-tag format keeps the
     concatenation prefix-free), digested per decision and cached in the
     per-domain [diagonal] table. *)
(* Compact injective gate encoding for the scan's memo key: one tag
   byte, the kind's parameters as raw IEEE bits, then the (relabelled)
   qubits as 16-bit little-endian ints. Every kind has a fixed arity and
   parameter count, so each gate's length is determined by its tag and
   the concatenation is uniquely decodable — the same prefix-freeness
   Marshal gave, at a fraction of the cost on this innermost loop. *)
let add_gate_key buf (g : Gate.t) =
  let tag t = Buffer.add_char buf (Char.chr t) in
  let param x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  (match g.Gate.kind with
   | Gate.I -> tag 0
   | Gate.X -> tag 1
   | Gate.Y -> tag 2
   | Gate.Z -> tag 3
   | Gate.H -> tag 4
   | Gate.S -> tag 5
   | Gate.Sdg -> tag 6
   | Gate.T -> tag 7
   | Gate.Tdg -> tag 8
   | Gate.Rx x -> tag 9; param x
   | Gate.Ry x -> tag 10; param x
   | Gate.Rz x -> tag 11; param x
   | Gate.Phase x -> tag 12; param x
   | Gate.Cnot -> tag 13
   | Gate.Cz -> tag 14
   | Gate.Cphase x -> tag 15; param x
   | Gate.Swap -> tag 16
   | Gate.Iswap -> tag 17
   | Gate.Sqrt_iswap -> tag 18
   | Gate.Rxx x -> tag 19; param x
   | Gate.Ryy x -> tag 20; param x
   | Gate.Rzz x -> tag 21; param x
   | Gate.Ccx -> tag 22);
  List.iter
    (fun q ->
      Buffer.add_char buf (Char.chr (q land 0xff));
      Buffer.add_char buf (Char.chr ((q lsr 8) land 0xff)))
    g.Gate.qubits

type scan = {
  mutable rev_gates : Gate.t list list;  (* node gate lists, newest first *)
  mutable all_diag : bool;
  relabel : (int, int) Hashtbl.t;
  mutable next_local : int;
  pp : Qdomain.Phase_poly.t;  (* on 2 local qubits; runs are pair-confined *)
  mutable pp_alive : bool;
  key : Buffer.t;
}

let scan_create () =
  { rev_gates = [];
    all_diag = true;
    relabel = Hashtbl.create 4;
    next_local = 0;
    pp = Qdomain.Phase_poly.identity 2;
    pp_alive = true;
    key = Buffer.create 64 }

let scan_push s gs =
  s.rev_gates <- gs :: s.rev_gates;
  List.iter
    (fun g ->
      if s.all_diag && not (Gate.is_diagonal_kind g.Gate.kind) then
        s.all_diag <- false;
      let lg =
        Gate.map_qubits
          (fun q ->
            match Hashtbl.find_opt s.relabel q with
            | Some k -> k
            | None ->
              let k = s.next_local in
              Hashtbl.replace s.relabel q k;
              s.next_local <- k + 1;
              k)
          g
      in
      add_gate_key s.key lg;
      if s.pp_alive then
        if s.next_local > 2 || not (Qdomain.Phase_poly.apply_gate s.pp lg) then
          s.pp_alive <- false)
    gs

(* Same decision chain as [Commute.is_diagonal_block], incrementally: the
   syntactic all-diagonal shortcut, the support-width gate, then the
   phase-polynomial affine test (exact boolean algebra, invariant under
   the injective relabelling and the padding to two local qubits), and
   the dense fallback on the original, unrelabelled gates — bit-for-bit
   the reference's [Unitary.on_support] comparison. *)
let scan_is_diagonal s =
  Qobs.Metrics.tick "detect.checks";
  let t0 = now_if_metrics () in
  if s.all_diag then begin
    route detect_structural t0;
    true
  end
  else if s.next_local > max_check_width then begin
    route detect_oversize t0;
    false
  end
  else begin
    let key = Digest.string (Buffer.contents s.key) in
    let m = Qobs.Domain_safe.Local.get memos in
    match Hashtbl.find_opt m.diagonal key with
    | Some r ->
      route detect_memo t0;
      r
    | None ->
      if s.pp_alive && s.next_local <= 2 then begin
        let r = Qdomain.Phase_poly.is_linear_identity s.pp in
        Hashtbl.replace m.diagonal key r;
        route detect_phase_poly t0;
        r
      end
      else begin
        let gates = List.concat (List.rev s.rev_gates) in
        let _, u = Qgate.Unitary.on_support gates in
        let r = Qnum.Cmat.is_diagonal ~eps:1e-9 u in
        Hashtbl.replace m.diagonal key r;
        route detect_dense t0;
        r
      end
  end
