type t = { r : int; c : int; re : float array; im : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Cmat.create: negative dimension";
  { r; c; re = Array.make (r * c) 0.; im = Array.make (r * c) 0. }

let rows m = m.r
let cols m = m.c
let idx m i j = (i * m.c) + j

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Cmat.get";
  let k = idx m i j in
  Cx.make m.re.(k) m.im.(k)

let set m i j z =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Cmat.set";
  let k = idx m i j in
  m.re.(k) <- Cx.re z;
  m.im.(k) <- Cx.im z

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      set m i j (f i j)
    done
  done;
  m

let of_lists rows_l =
  match rows_l with
  | [] -> create 0 0
  | first :: _ ->
    let r = List.length rows_l and c = List.length first in
    if List.exists (fun row -> List.length row <> c) rows_l then
      invalid_arg "Cmat.of_lists: ragged rows";
    let a = Array.of_list (List.map Array.of_list rows_l) in
    init r c (fun i j -> a.(i).(j))

let of_real_lists rows_l =
  of_lists (List.map (List.map Cx.of_float) rows_l)

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }
let zeros r c = create r c

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.(idx m i i) <- 1.
  done;
  m

let diag d =
  let n = Array.length d in
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i d.(i)
  done;
  m

let diagonal m =
  if m.r <> m.c then invalid_arg "Cmat.diagonal: not square";
  Array.init m.r (fun i -> get m i i)

let map2 name f a b =
  if a.r <> b.r || a.c <> b.c then
    invalid_arg (Printf.sprintf "Cmat.%s: dimension mismatch" name);
  init a.r a.c (fun i j -> f (get a i j) (get b i j))

let add a b = map2 "add" Cx.add a b
let sub a b = map2 "sub" Cx.sub a b
let neg a = init a.r a.c (fun i j -> Cx.neg (get a i j))
let scale z a = init a.r a.c (fun i j -> Cx.mul z (get a i j))
let scale_real s a = init a.r a.c (fun i j -> Cx.scale s (get a i j))

let mul a b =
  if a.c <> b.r then invalid_arg "Cmat.mul: dimension mismatch";
  let m = create a.r b.c in
  (* i-k-j loop order keeps the inner loop streaming over contiguous rows *)
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let ar = a.re.((i * a.c) + k) and ai = a.im.((i * a.c) + k) in
      if ar <> 0. || ai <> 0. then begin
        let boff = k * b.c and moff = i * b.c in
        for j = 0 to b.c - 1 do
          let br = b.re.(boff + j) and bi = b.im.(boff + j) in
          m.re.(moff + j) <- m.re.(moff + j) +. (ar *. br) -. (ai *. bi);
          m.im.(moff + j) <- m.im.(moff + j) +. (ar *. bi) +. (ai *. br)
        done
      end
    done
  done;
  m

let mul_list = function
  | [] -> invalid_arg "Cmat.mul_list: empty list"
  | first :: rest -> List.fold_left mul first rest

let rec pow m k =
  if m.r <> m.c then invalid_arg "Cmat.pow: not square";
  if k < 0 then invalid_arg "Cmat.pow: negative exponent";
  if k = 0 then identity m.r
  else if k mod 2 = 0 then begin
    let h = pow m (k / 2) in
    mul h h
  end
  else mul m (pow m (k - 1))

let transpose m = init m.c m.r (fun i j -> get m j i)
let conj m = init m.r m.c (fun i j -> Cx.conj (get m i j))
let dagger m = init m.c m.r (fun i j -> Cx.conj (get m j i))

let trace m =
  if m.r <> m.c then invalid_arg "Cmat.trace: not square";
  let acc = ref Cx.zero in
  for i = 0 to m.r - 1 do
    acc := Cx.add !acc (get m i i)
  done;
  !acc

let kron a b =
  let m = create (a.r * b.r) (a.c * b.c) in
  for ia = 0 to a.r - 1 do
    for ja = 0 to a.c - 1 do
      let z = get a ia ja in
      if not (Cx.is_zero ~eps:0. z) then
        for ib = 0 to b.r - 1 do
          for jb = 0 to b.c - 1 do
            set m ((ia * b.r) + ib) ((ja * b.c) + jb) (Cx.mul z (get b ib jb))
          done
        done
    done
  done;
  m

let kron_list = function
  | [] -> identity 1
  | first :: rest -> List.fold_left kron first rest

let apply m v =
  if m.c <> Vec.dim v then invalid_arg "Cmat.apply: dimension mismatch";
  let vre = Vec.unsafe_re v and vim = Vec.unsafe_im v in
  let out = Vec.create m.r in
  let ore_ = Vec.unsafe_re out and oim = Vec.unsafe_im out in
  for i = 0 to m.r - 1 do
    let off = i * m.c in
    let sr = ref 0. and si = ref 0. in
    for j = 0 to m.c - 1 do
      let ar = m.re.(off + j) and ai = m.im.(off + j) in
      sr := !sr +. (ar *. vre.(j)) -. (ai *. vim.(j));
      si := !si +. (ar *. vim.(j)) +. (ai *. vre.(j))
    done;
    ore_.(i) <- !sr;
    oim.(i) <- !si
  done;
  out

let column m j = Vec.init m.r (fun i -> get m i j)
let row m i = Vec.init m.c (fun j -> get m i j)

let max_abs m =
  let worst = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    let d = Float.hypot m.re.(k) m.im.(k) in
    if d > !worst then worst := d
  done;
  !worst

let max_abs_diff a b =
  if a.r <> b.r || a.c <> b.c then
    invalid_arg "Cmat.max_abs_diff: dimension mismatch";
  let worst = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    let d = Float.hypot (a.re.(k) -. b.re.(k)) (a.im.(k) -. b.im.(k)) in
    if d > !worst then worst := d
  done;
  !worst

let frobenius_norm m =
  let acc = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    acc := !acc +. (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))
  done;
  Float.sqrt !acc

(* Every comparison with [nan] is false, so a tolerance test such as
   [max_abs_diff a b <= eps] would pass vacuously on a non-finite entry
   (Rz ∞ would equal I, Z and H up to phase). The comparisons below
   refute on any non-finite entry instead. *)
let all_finite m =
  let ok = ref true and k = ref 0 in
  let n = Array.length m.re in
  while !ok && !k < n do
    ok := Float.is_finite m.re.(!k) && Float.is_finite m.im.(!k);
    incr k
  done;
  !ok

let equal ?(eps = 1e-9) a b =
  a.r = b.r && a.c = b.c && all_finite a && all_finite b
  && max_abs_diff a b <= eps

let equal_up_to_phase ?(eps = 1e-9) a b =
  a.r = b.r && a.c = b.c && all_finite a && all_finite b
  &&
  (* find the entry of largest modulus in b and align phases there *)
  let best = ref 0 and best_abs = ref (-1.) in
  Array.iteri
    (fun k br ->
      let d = Float.hypot br b.im.(k) in
      if d > !best_abs then begin
        best_abs := d;
        best := k
      end)
    b.re;
  if !best_abs <= eps then max_abs a <= eps
  else begin
    let k = !best in
    let zb = Cx.make b.re.(k) b.im.(k) and za = Cx.make a.re.(k) a.im.(k) in
    if Cx.abs za <= eps then false
    else begin
      let phase = Cx.div za zb in
      let phase = Cx.scale (1. /. Cx.abs phase) phase in
      max_abs_diff a (scale phase b) <= eps
    end
  end

let is_square m = m.r = m.c

let is_unitary ?(eps = 1e-9) m =
  is_square m && max_abs_diff (mul (dagger m) m) (identity m.r) <= eps

let is_hermitian ?(eps = 1e-9) m =
  is_square m && max_abs_diff m (dagger m) <= eps

let is_diagonal ?(eps = 1e-9) m =
  is_square m
  &&
  let ok = ref true in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      if i <> j && Float.hypot m.re.(idx m i j) m.im.(idx m i j) > eps then
        ok := false
    done
  done;
  !ok

let commute ?(eps = 1e-9) a b =
  if a.r <> a.c || b.r <> b.c || a.r <> b.r then
    invalid_arg "Cmat.commute: dimension mismatch";
  all_finite a && all_finite b
  &&
  (* entry-by-entry comparison of a·b and b·a with early exit: each entry
     of the products is one row·column product, and a non-commuting pair
     reveals a violating entry almost immediately, so the quadratic scan
     rarely pays the full cubic cost. The accumulation order matches
     {!mul} term for term, so the decision is identical to comparing the
     fully materialized products. *)
  let n = a.r in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    let jc = !j in
    let i = ref 0 in
    while !ok && !i < n do
      let off = !i * n in
      let xr = ref 0. and xi = ref 0. in
      let yr = ref 0. and yi = ref 0. in
      for k = 0 to n - 1 do
        let ar = a.re.(off + k) and ai = a.im.(off + k) in
        if ar <> 0. || ai <> 0. then begin
          let br = b.re.((k * n) + jc) and bi = b.im.((k * n) + jc) in
          xr := !xr +. (ar *. br) -. (ai *. bi);
          xi := !xi +. (ar *. bi) +. (ai *. br)
        end
      done;
      for k = 0 to n - 1 do
        let br = b.re.(off + k) and bi = b.im.(off + k) in
        if br <> 0. || bi <> 0. then begin
          let ar = a.re.((k * n) + jc) and ai = a.im.((k * n) + jc) in
          yr := !yr +. (br *. ar) -. (bi *. ai);
          yi := !yi +. (br *. ai) +. (bi *. ar)
        end
      done;
      if Float.hypot (!xr -. !yr) (!xi -. !yi) > eps then ok := false;
      incr i
    done;
    incr j
  done;
  !ok

let det m =
  if m.r <> m.c then invalid_arg "Cmat.det: not square";
  let n = m.r in
  if n = 0 then Cx.one
  else begin
    let a = copy m in
    let d = ref Cx.one in
    (try
       for k = 0 to n - 1 do
         (* partial pivoting *)
         let piv = ref k and piv_abs = ref (Cx.abs (get a k k)) in
         for i = k + 1 to n - 1 do
           let v = Cx.abs (get a i k) in
           if v > !piv_abs then begin
             piv := i;
             piv_abs := v
           end
         done;
         if !piv_abs = 0. then begin
           d := Cx.zero;
           raise Exit
         end;
         if !piv <> k then begin
           for j = 0 to n - 1 do
             let tmp = get a k j in
             set a k j (get a !piv j);
             set a !piv j tmp
           done;
           d := Cx.neg !d
         end;
         d := Cx.mul !d (get a k k);
         for i = k + 1 to n - 1 do
           let f = Cx.div (get a i k) (get a k k) in
           for j = k to n - 1 do
             set a i j (Cx.sub (get a i j) (Cx.mul f (get a k j)))
           done
         done
       done
     with Exit -> ());
    !d
  end

let fidelity u v =
  if u.r <> v.r || u.c <> v.c || u.r <> u.c then
    invalid_arg "Cmat.fidelity: dimension mismatch";
  let d = float_of_int u.r in
  let t = trace (mul (dagger u) v) in
  Cx.norm2 t /. (d *. d)

(* Qubit q is bit (n-1-q) of a basis index (big-endian convention). *)
let bit_of_qubit n q = n - 1 - q

(* the shared index frame of [embed] and [mul_embedded]: the bit positions
   of the target qubits, the remaining positions, and the composition of a
   rest-configuration with a k-bit local index into a full basis index *)
let embed_frame ~name ~n_qubits ~targets u =
  let k = List.length targets in
  if u.r <> 1 lsl k || u.c <> 1 lsl k then
    invalid_arg
      (Printf.sprintf "Cmat.%s: unitary dimension does not match target count"
         name);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun q ->
      if q < 0 || q >= n_qubits then
        invalid_arg (Printf.sprintf "Cmat.%s: qubit out of range" name);
      if Hashtbl.mem seen q then
        invalid_arg (Printf.sprintf "Cmat.%s: duplicate target" name);
      Hashtbl.add seen q ())
    targets;
  let target_bits = Array.of_list (List.map (bit_of_qubit n_qubits) targets) in
  let rest_bits =
    List.filter
      (fun b -> not (Array.exists (( = ) b) target_bits))
      (List.init n_qubits (fun b -> b))
  in
  let rest_bits = Array.of_list rest_bits in
  (* compose a full index from a rest-configuration and a k-bit local index;
     local bit 0 of u's index space is its least-significant bit, which is
     the last listed target *)
  let compose rest_cfg local =
    let r = ref 0 in
    Array.iteri
      (fun pos b -> if (rest_cfg lsr pos) land 1 = 1 then r := !r lor (1 lsl b))
      rest_bits;
    Array.iteri
      (fun pos b ->
        let local_bit = k - 1 - pos in
        if (local lsr local_bit) land 1 = 1 then r := !r lor (1 lsl b))
      target_bits;
    !r
  in
  (k, Array.length rest_bits, compose)

let embed ~n_qubits ~targets u =
  let k, n_rest, compose = embed_frame ~name:"embed" ~n_qubits ~targets u in
  let dim = 1 lsl n_qubits in
  let m = create dim dim in
  for rest_cfg = 0 to (1 lsl n_rest) - 1 do
    for lr = 0 to (1 lsl k) - 1 do
      let full_r = compose rest_cfg lr in
      for lc = 0 to (1 lsl k) - 1 do
        let z = get u lr lc in
        if not (Cx.is_zero ~eps:0. z) then
          set m full_r (compose rest_cfg lc) z
      done
    done
  done;
  m

let mul_embedded ~n_qubits ~targets u m =
  let k, n_rest, compose =
    embed_frame ~name:"mul_embedded" ~n_qubits ~targets u
  in
  let dim = 1 lsl n_qubits in
  if m.r <> dim then invalid_arg "Cmat.mul_embedded: dimension mismatch";
  let dk = 1 lsl k in
  let out = create dim m.c in
  (* block-local matrix product: each rest-configuration selects 2^k rows
     of [m] that mix among themselves under embed(u); everything else is
     a row copy scaled by u's entries. Cost 4^n·2^k instead of 8^n. *)
  let rows_idx = Array.make dk 0 in
  for rest_cfg = 0 to (1 lsl n_rest) - 1 do
    for l = 0 to dk - 1 do
      rows_idx.(l) <- compose rest_cfg l
    done;
    for lr = 0 to dk - 1 do
      let out_off = rows_idx.(lr) * m.c in
      for lc = 0 to dk - 1 do
        let ur = u.re.((lr * dk) + lc) and ui = u.im.((lr * dk) + lc) in
        if ur <> 0. || ui <> 0. then begin
          let src_off = rows_idx.(lc) * m.c in
          for j = 0 to m.c - 1 do
            let br = m.re.(src_off + j) and bi = m.im.(src_off + j) in
            out.re.(out_off + j) <-
              out.re.(out_off + j) +. (ur *. br) -. (ui *. bi);
            out.im.(out_off + j) <-
              out.im.(out_off + j) +. (ur *. bi) +. (ui *. br)
          done
        end
      done
    done
  done;
  out

let apply_embedded ~n_qubits ~targets u ~re ~im =
  (* the same checks as {!embed_frame}, without its per-call tables:
     this runs once per gate on the dense route's probe *)
  let bits = Array.of_list (List.map (bit_of_qubit n_qubits) targets) in
  let k = Array.length bits in
  let dk = 1 lsl k in
  if u.r <> dk || u.c <> dk then
    invalid_arg
      "Cmat.apply_embedded: unitary dimension does not match target count";
  let mask =
    Array.fold_left
      (fun m b ->
        if b < 0 || b >= n_qubits then
          invalid_arg "Cmat.apply_embedded: qubit out of range";
        if m land (1 lsl b) <> 0 then
          invalid_arg "Cmat.apply_embedded: duplicate target";
        m lor (1 lsl b))
      0 bits
  in
  let dim = 1 lsl n_qubits in
  if Array.length re <> dim || Array.length im <> dim then
    invalid_arg "Cmat.apply_embedded: vector length is not 2^n_qubits";
  (* global bit pattern of each local index (first target = most
     significant local bit, as in {!embed_frame}) *)
  let spread =
    Array.init dk (fun l ->
        let x = ref 0 in
        Array.iteri
          (fun pos b ->
            if (l lsr (k - 1 - pos)) land 1 = 1 then x := !x lor (1 lsl b))
          bits;
        !x)
  in
  let ar = Array.make dk 0. and ai = Array.make dk 0. in
  for rest = 0 to dim - 1 do
    if rest land mask = 0 then begin
      for l = 0 to dk - 1 do
        ar.(l) <- re.(rest lor spread.(l));
        ai.(l) <- im.(rest lor spread.(l))
      done;
      for i = 0 to dk - 1 do
        (* no zero-skipping: every term, in ascending column order,
           with the rounding of [Cx.add acc (Cx.mul u_ij a_j)] *)
        let xr = ref 0. and xi = ref 0. in
        let row = i * dk in
        for j = 0 to dk - 1 do
          let mr = u.re.(row + j) and mi = u.im.(row + j) in
          xr := !xr +. ((mr *. ar.(j)) -. (mi *. ai.(j)));
          xi := !xi +. ((mr *. ai.(j)) +. (mi *. ar.(j)))
        done;
        re.(rest lor spread.(i)) <- !xr;
        im.(rest lor spread.(i)) <- !xi
      done
    end
  done

(* local index of a full basis index under [targets] (listed order, first
   target = most significant local bit, matching {!embed_frame}),
   tabulated for all 2^n indices *)
let local_index_table ~n_qubits ~targets =
  let k = List.length targets in
  let tb = Array.of_list (List.map (bit_of_qubit n_qubits) targets) in
  Array.init (1 lsl n_qubits) (fun idx ->
      let l = ref 0 in
      Array.iteri
        (fun pos b ->
          if (idx lsr b) land 1 = 1 then l := !l lor (1 lsl (k - 1 - pos)))
        tb;
      !l)

let commute_embedded ?(eps = 1e-9) ~n_qubits ~targets_a ua ~targets_b ub =
  (* Decides [commute (embed ua) (embed ub)] straight from the own-support
     matrices. An embedded entry a[i,k] is structurally zero unless i and
     k agree outside the target bits, so each row·column product of the
     two orderings has 2^|targets| candidate terms, not 2^n — cost
     4ⁿ·(2^ka + 2^kb) instead of 8ⁿ. The candidate k's are enumerated in
     ascending order and value-zero entries skipped exactly as in
     {!commute}, so the surviving terms accumulate in the same order with
     the same values and the decision is identical to embedding first
     (structurally-skipped terms are exact zeros, which only affect the
     sign of a zero accumulator — invisible to the comparison). *)
  let frame targets (u : t) =
    let k, _, _ = embed_frame ~name:"commute_embedded" ~n_qubits ~targets u in
    let bits = List.map (bit_of_qubit n_qubits) targets in
    let mask = List.fold_left (fun m b -> m lor (1 lsl b)) 0 bits in
    let sorted = List.sort compare bits in
    (* spreading counter bit t to the t-th lowest target bit is monotone,
       so c ↦ base lor spread.(c) walks the structural k's in ascending
       order *)
    let spread =
      Array.init (1 lsl k) (fun c ->
          let r = ref 0 in
          List.iteri
            (fun t b -> if (c lsr t) land 1 = 1 then r := !r lor (1 lsl b))
            sorted;
          !r)
    in
    (mask, spread, local_index_table ~n_qubits ~targets)
  in
  let mask_a, spread_a, loc_a = frame targets_a ua in
  let mask_b, spread_b, loc_b = frame targets_b ub in
  all_finite ua && all_finite ub
  &&
  let n = 1 lsl n_qubits in
  let da = ua.c and db = ub.c in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    let jc = !j in
    let i = ref 0 in
    while !ok && !i < n do
      let ii = !i in
      let xr = ref 0. and xi = ref 0. in
      let yr = ref 0. and yi = ref 0. in
      let base_a = ii land lnot mask_a in
      let ra = loc_a.(ii) * da in
      for c = 0 to Array.length spread_a - 1 do
        let k = base_a lor spread_a.(c) in
        let ar = ua.re.(ra + loc_a.(k)) and ai = ua.im.(ra + loc_a.(k)) in
        if (ar <> 0. || ai <> 0.) && (k lxor jc) land lnot mask_b = 0 then begin
          let o = (loc_b.(k) * db) + loc_b.(jc) in
          let br = ub.re.(o) and bi = ub.im.(o) in
          xr := !xr +. (ar *. br) -. (ai *. bi);
          xi := !xi +. (ar *. bi) +. (ai *. br)
        end
      done;
      let base_b = ii land lnot mask_b in
      let rb = loc_b.(ii) * db in
      for c = 0 to Array.length spread_b - 1 do
        let k = base_b lor spread_b.(c) in
        let br = ub.re.(rb + loc_b.(k)) and bi = ub.im.(rb + loc_b.(k)) in
        if (br <> 0. || bi <> 0.) && (k lxor jc) land lnot mask_a = 0 then begin
          let o = (loc_a.(k) * da) + loc_a.(jc) in
          let ar = ua.re.(o) and ai = ua.im.(o) in
          yr := !yr +. (br *. ar) -. (bi *. ai);
          yi := !yi +. (br *. ai) +. (bi *. ar)
        end
      done;
      if Float.hypot (!xr -. !yr) (!xi -. !yi) > eps then ok := false;
      incr i
    done;
    incr j
  done;
  !ok

let permute_qubits perm u =
  let n =
    let rec log2 d acc = if d <= 1 then acc else log2 (d / 2) (acc + 1) in
    log2 u.r 0
  in
  if u.r <> 1 lsl n || u.r <> u.c then
    invalid_arg "Cmat.permute_qubits: not a square power-of-two matrix";
  if Array.length perm <> n then
    invalid_arg "Cmat.permute_qubits: permutation size mismatch";
  let remap index =
    let out = ref 0 in
    for q = 0 to n - 1 do
      let b_in = bit_of_qubit n q and b_out = bit_of_qubit n perm.(q) in
      if (index lsr b_in) land 1 = 1 then out := !out lor (1 lsl b_out)
    done;
    !out
  in
  let m = create u.r u.c in
  for i = 0 to u.r - 1 do
    for j = 0 to u.c - 1 do
      set m (remap i) (remap j) (get u i j)
    done
  done;
  m

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "[@[<hov>";
    for j = 0 to m.c - 1 do
      if j > 0 then Format.fprintf ppf ",@ ";
      Cx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "@]]";
    if i < m.r - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
