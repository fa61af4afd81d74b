type t = {
  per_qubit : int list list array;  (** ordered groups of instruction ids *)
  nq : int;
  mutable index : int array;
      (** [id * nq + qubit] -> group position, [-1] when the instruction
          is not on that qubit. A flat array because [same_group] sits on
          the aggregator's innermost candidate test and every refresh
          rewrites a whole chain's entries. *)
}

let ensure_capacity t id =
  let cap = Array.length t.index / t.nq in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * max 1 cap) in
    let index = Array.make (ncap * t.nq) (-1) in
    Array.blit t.index 0 index 0 (cap * t.nq);
    t.index <- index
  end

let groups_of_chain commute _g chain =
  (* the open group is kept as resolved instructions so each membership
     probe skips the node lookup *)
  let groups = ref [] and current = ref [] in
  let flush () =
    if !current <> [] then begin
      groups :=
        List.rev_map (fun (i : Inst.t) -> i.Inst.id) !current :: !groups;
      current := []
    end
  in
  List.iter
    (fun (inst : Inst.t) ->
      let commutes_with_all =
        List.for_all (fun prev -> commute prev inst) !current
      in
      if not commutes_with_all then flush ();
      current := inst :: !current)
    chain;
  flush ();
  List.rev !groups

let set_qubit t q ordered =
  List.iter
    (fun group -> List.iter (fun id -> t.index.((id * t.nq) + q) <- -1) group)
    t.per_qubit.(q);
  t.per_qubit.(q) <- ordered;
  List.iteri
    (fun pos group ->
      List.iter
        (fun id ->
          ensure_capacity t id;
          t.index.((id * t.nq) + q) <- pos)
        group)
    ordered

(* Resync of one qubit's groups after its chain changed. Greedy grouping
   decides each element from the elements of the group it would join, so
   - an old group whose members and breaker (the element that closed it)
     lie in the common prefix of the old and new chains stays, and the
     next group opens where it did;
   - from a group opening inside the common suffix, greedy sees what it
     saw before, so if an old group opened at the same element, it and
     every later old group stay.
   Only the window between is rescanned and resolved. Every pair a full
   rescan probes outside it was probed when the old groups were built, so
   a memoized [commute] sees the same first-time queries. *)
let refresh_qubit commute t g q =
  let old = Array.of_list (List.concat t.per_qubit.(q)) in
  let cur = Array.of_list (Gdg.chain_ids g q) in
  let lo = Array.length old and ln = Array.length cur in
  let k = ref 0 and m = ref 0 in
  while !k < min lo ln && old.(!k) = cur.(!k) do incr k done;
  while !k + !m < min lo ln && old.(lo - 1 - !m) = cur.(ln - 1 - !m) do
    incr m
  done;
  (* kept groups, and the old groups from old index [s] on *)
  let rec keep kept s = function
    | grp :: rest when s + List.length grp < !k ->
      keep (grp :: kept) (s + List.length grp) rest
    | rest -> (kept, s, rest)
  in
  let kept, resume, rest = keep [] 0 t.per_qubit.(q) in
  let rec old_from s j = function
    | grp :: rest when s < j -> old_from (s + List.length grp) j rest
    | groups when s = j && groups <> [] -> Some groups
    | _ -> None
  in
  (* [acc]: closed new groups, reversed; [current]: the open one *)
  let rec scan i acc current =
    let close () =
      if current = [] then acc
      else List.rev_map (fun (x : Inst.t) -> x.Inst.id) current :: acc
    in
    if i >= ln then List.rev (close ())
    else
      let inst = Gdg.find g cur.(i) in
      if current <> [] && List.for_all (fun p -> commute p inst) current then
        scan (i + 1) acc (inst :: current)
      else
        match
          if i >= ln - !m then old_from resume (i + lo - ln) rest else None
        with
        | Some reused -> List.rev_append (close ()) reused
        | None -> scan (i + 1) (close ()) [ inst ]
  in
  if old <> cur then set_qubit t q (List.rev_append kept (scan resume [] []))

let refresh
    ?(commute = fun a b -> Oracle.blocks a.Inst.gates b.Inst.gates) t g
    ~qubits =
  List.iter (refresh_qubit commute t g) (List.sort_uniq compare qubits)

(* The default build routes every pairwise check through the oracle with
   a per-build summary cache keyed by instruction id — ids are unique and
   blocks immutable, so caching per id is sound, and each instruction's
   digest/classification is computed once per build instead of once per
   pair probe. *)
let oracle_commute () =
  let summaries : (int, Oracle.t) Hashtbl.t = Hashtbl.create 256 in
  let summary_of (i : Inst.t) =
    match Hashtbl.find_opt summaries i.Inst.id with
    | Some s -> s
    | None ->
      let s = fst (Oracle.of_gates i.Inst.gates) in
      Hashtbl.replace summaries i.Inst.id s;
      s
  in
  fun a b ->
    Oracle.blocks ~sa:(summary_of a) ~sb:(summary_of b) a.Inst.gates
      b.Inst.gates

let build ?commute g =
  let commute =
    match commute with Some c -> c | None -> oracle_commute ()
  in
  let n = Gdg.n_qubits g in
  let nq = max 1 n in
  let t =
    { per_qubit = Array.make nq [];
      nq;
      index = Array.make (max 1 (Gdg.fresh_id g) * nq) (-1) }
  in
  for q = 0 to n - 1 do
    set_qubit t q (groups_of_chain commute g (Gdg.chain g q))
  done;
  t

let build_reference g = build ~commute:Commute.insts_reference g

let groups_on t q = t.per_qubit.(q)

let lookup t ~qubit id =
  let k = (id * t.nq) + qubit in
  if id >= 0 && k < Array.length t.index then t.index.(k) else -1

let group_index t ~qubit id =
  match lookup t ~qubit id with -1 -> raise Not_found | pos -> pos

let same_group t ~qubit a b =
  let x = lookup t ~qubit a in
  x >= 0 && x = lookup t ~qubit b

let reorderable t a b =
  List.for_all
    (fun q -> same_group t ~qubit:q a.Inst.id b.Inst.id)
    (Inst.common_qubits a b)
