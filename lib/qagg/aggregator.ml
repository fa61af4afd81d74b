module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Comm_group = Qgdg.Comm_group

type stats = {
  merges : int;
  rounds : int;
  initial_makespan : float;
  final_makespan : float;
}

(* Slack tables are flat arrays indexed by node id (the id space is dense:
   initial nodes plus one fresh id per merge, so capacity grows by
   doubling). [nan] marks an id with no live node in the float tables;
   [-1] marks a missing chain neighbour / position in the int tables,
   which are laid out [id * nq + qubit]. Array backing matters because
   62% of merges move the makespan and therefore reseed the full backward
   ALAP pass — that pass is a tight scan here instead of a hashtable
   drain. Every fold below reproduces the fold order of the hashtable
   version it replaced, so the computed floats are bit-identical. *)
type slack = {
  mutable start : float array;
  mutable finish : float array;
  mutable latest_start : float array;
  mutable pred : int array;
  mutable succ : int array;
  mutable pos : int array;  (* position within the qubit's chain *)
  mutable node : Inst.t option array;  (* id -> live instruction *)
  mutable stamp : int array;  (* worklist membership, epoch-tagged *)
  mutable epoch : int;
  nq : int;
  mutable makespan : float;
}

let ensure_capacity s id =
  let cap = Array.length s.start in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * cap) in
    let grow_float a =
      let b = Array.make ncap nan in
      Array.blit a 0 b 0 cap;
      b
    and grow_int a =
      let b = Array.make (ncap * s.nq) (-1) in
      Array.blit a 0 b 0 (cap * s.nq);
      b
    in
    s.start <- grow_float s.start;
    s.finish <- grow_float s.finish;
    s.latest_start <- grow_float s.latest_start;
    s.pred <- grow_int s.pred;
    s.succ <- grow_int s.succ;
    s.pos <- grow_int s.pos;
    let node = Array.make ncap None in
    Array.blit s.node 0 node 0 cap;
    s.node <- node;
    let stamp = Array.make ncap 0 in
    Array.blit s.stamp 0 stamp 0 cap;
    s.stamp <- stamp
  end

(* one chain pass + one Kahn pass computes the topological order, the ASAP
   times, the makespan and the ALAP deadlines; the incremental path below
   maintains the same tables in place so this full pass only runs at
   round boundaries *)
let compute_slack g =
  let nq = Gdg.n_qubits g in
  let cap = Gdg.fresh_id g in
  let start = Array.make cap nan and finish = Array.make cap nan in
  let latest_start = Array.make cap nan in
  let pred = Array.make (cap * nq) (-1)
  and succ = Array.make (cap * nq) (-1)
  and pos = Array.make (cap * nq) (-1) in
  let indeg = Array.make cap 0 in
  for q = 0 to nq - 1 do
    let rec link k = function
      | x :: (y :: _ as rest) ->
        pos.(x * nq + q) <- k;
        succ.(x * nq + q) <- y;
        pred.(y * nq + q) <- x;
        indeg.(y) <- indeg.(y) + 1;
        link (k + 1) rest
      | [ x ] -> pos.(x * nq + q) <- k
      | [] -> ()
    in
    link 0 (Gdg.chain_ids g q)
  done;
  let node = Array.make cap None in
  let queue = Queue.create () in
  Gdg.iter_insts g (fun i ->
      node.(i.Inst.id) <- Some i;
      if indeg.(i.Inst.id) = 0 then Queue.add i.Inst.id queue);
  let order = ref [] in
  let seen = ref 0 in
  let makespan = ref 0. in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order := id :: !order;
    incr seen;
    let inst = match node.(id) with Some i -> i | None -> assert false in
    let s =
      List.fold_left
        (fun acc q ->
          let p = pred.(id * nq + q) in
          if p < 0 then acc else Float.max acc finish.(p))
        0. inst.Inst.qubits
    in
    let f = s +. inst.Inst.latency in
    start.(id) <- s;
    finish.(id) <- f;
    if f > !makespan then makespan := f;
    List.iter
      (fun q ->
        let c = succ.(id * nq + q) in
        if c >= 0 then begin
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then Queue.add c queue
        end)
      inst.Inst.qubits
  done;
  if !seen <> Gdg.size g then failwith "Aggregator: cyclic dependence graph";
  let makespan = !makespan in
  List.iter
    (fun id ->
      let inst = match node.(id) with Some i -> i | None -> assert false in
      let latest_finish =
        List.fold_left
          (fun acc q ->
            let c = succ.(id * nq + q) in
            if c < 0 then acc else Float.min acc latest_start.(c))
          makespan inst.Inst.qubits
      in
      latest_start.(id) <- latest_finish -. inst.Inst.latency)
    !order;
  { start; finish; latest_start; pred; succ; pos; node;
    stamp = Array.make cap 0; epoch = 0; nq; makespan }

(* Incremental counterpart of {!compute_slack} after one accepted merge of
   [a] and [b] into [merged]. Only the chains of the merged support
   changed, so the pred/succ/position tables are patched for those chains
   alone, and the ASAP/ALAP times are re-propagated by worklist from the
   affected nodes — each recomputation uses exactly the folds of the full
   pass, and the fixpoint on a DAG is unique, so the resulting tables are
   identical to a from-scratch recomputation (the qcheck suite pins this
   against the retained reference aggregator). [old_chains] are the
   (qubit, chain ids) of the merged support captured before the merge. *)
let update_slack_after_merge g slack ~old_chains ~a ~b (merged : Inst.t) =
  ensure_capacity slack merged.Inst.id;
  let nq = slack.nq in
  (* the merge removed [a] and [b] and added [merged]; every other node
     record is untouched (latencies only change at round boundaries,
     which rebuild the slack wholesale), so the id->instruction cache is
     patched in place *)
  slack.node.(a) <- None;
  slack.node.(b) <- None;
  slack.node.(merged.Inst.id) <- Some merged;
  let node_of x =
    match slack.node.(x) with Some i -> i | None -> assert false
  in
  let new_chains =
    List.map (fun q -> (q, Gdg.chain_ids g q)) merged.Inst.qubits
  in
  (* 1. re-link the affected chains *)
  List.iter
    (fun (q, old_ids) ->
      List.iter
        (fun x ->
          slack.pos.(x * nq + q) <- -1;
          slack.pred.(x * nq + q) <- -1;
          slack.succ.(x * nq + q) <- -1)
        old_ids)
    old_chains;
  List.iter
    (fun (q, ids) ->
      List.iteri (fun k x -> slack.pos.(x * nq + q) <- k) ids;
      let rec link = function
        | x :: (y :: _ as rest) ->
          slack.succ.(x * nq + q) <- y;
          slack.pred.(y * nq + q) <- x;
          link rest
        | _ -> ()
      in
      link ids)
    new_chains;
  List.iter
    (fun x ->
      slack.start.(x) <- nan;
      slack.finish.(x) <- nan;
      slack.latest_start.(x) <- nan)
    [ a; b ];
  (* 2. forward ASAP re-propagation from the affected chains; a missing
     predecessor finish reads as 0 and is corrected when that predecessor
     lands (setting a value always re-pushes its successors) *)
  slack.epoch <- slack.epoch + 1;
  let fep = slack.epoch in
  let queue = Queue.create () in
  let push x =
    if slack.stamp.(x) <> fep then begin
      slack.stamp.(x) <- fep;
      Queue.add x queue
    end
  in
  List.iter (fun (_, ids) -> List.iter push ids) new_chains;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    slack.stamp.(x) <- 0;
    let inst = node_of x in
    let s =
      List.fold_left
        (fun acc q ->
          let p = slack.pred.(x * nq + q) in
          if p < 0 then acc
          else
            let f = slack.finish.(p) in
            Float.max acc (if Float.is_nan f then 0. else f))
        0. inst.Inst.qubits
    in
    let f = s +. inst.Inst.latency in
    if not (slack.start.(x) = s && slack.finish.(x) = f) then begin
      slack.start.(x) <- s;
      slack.finish.(x) <- f;
      List.iter
        (fun q ->
          let c = slack.succ.(x * nq + q) in
          if c >= 0 then push c)
        inst.Inst.qubits
    end
  done;
  (* 3. makespan: a cheap scan of the finish table (merges may shrink it,
     so a running max cannot be maintained); [nan] entries compare false *)
  let mk = ref 0. in
  Array.iter (fun f -> if f > !mk then mk := f) slack.finish;
  let mk = !mk in
  (* 4. backward ALAP re-propagation. Every deadline is anchored on the
     makespan, so when it moved all nodes are reseeded — in decreasing
     ASAP-start order, a reverse-topological order up to zero-latency
     ties, which the correction drain resolves; otherwise only the
     affected chains are reseeded. *)
  slack.epoch <- slack.epoch + 1;
  let bep = slack.epoch in
  let bqueue = Queue.create () in
  let bpush x =
    if slack.stamp.(x) <> bep then begin
      slack.stamp.(x) <- bep;
      Queue.add x bqueue
    end
  in
  if mk <> slack.makespan then begin
    slack.makespan <- mk;
    let n_alive = ref 0 in
    Array.iter (fun s -> if not (Float.is_nan s) then incr n_alive) slack.start;
    let ids = Array.make !n_alive 0 in
    let w = ref 0 in
    Array.iteri
      (fun id s ->
        if not (Float.is_nan s) then begin
          ids.(!w) <- id;
          incr w
        end)
      slack.start;
    Array.sort
      (fun i1 i2 ->
        (* all reseeded starts are live, hence non-nan, so the direct
           float comparisons order exactly like polymorphic compare *)
        let s1 = slack.start.(i1) and s2 = slack.start.(i2) in
        if s2 > s1 then 1
        else if s2 < s1 then -1
        else compare (i2 : int) i1)
      ids;
    Array.iter bpush ids
  end
  else List.iter (fun (_, ids) -> List.iter bpush ids) new_chains;
  while not (Queue.is_empty bqueue) do
    let x = Queue.pop bqueue in
    slack.stamp.(x) <- 0;
    let inst = node_of x in
    let latest_finish =
      List.fold_left
        (fun acc q ->
          let c = slack.succ.(x * nq + q) in
          if c < 0 then acc
          else
            let ls = slack.latest_start.(c) in
            if Float.is_nan ls then acc else Float.min acc ls)
        slack.makespan inst.Inst.qubits
    in
    let ls = latest_finish -. inst.Inst.latency in
    if slack.latest_start.(x) <> ls then begin
      slack.latest_start.(x) <- ls;
      List.iter
        (fun q ->
          let p = slack.pred.(x * nq + q) in
          if p >= 0 then bpush p)
        inst.Inst.qubits
    end
  done

(* merged block placed at a's start, delayed by b's predecessors on the
   qubits a does not cover; monotonic iff every successor's latest start
   and the makespan still hold under the pessimistic serial latency *)
let monotonic g slack a b ~merged_latency =
  let nq = slack.nq in
  let ia = Gdg.find g a and ib = Gdg.find g b in
  let delay =
    List.fold_left
      (fun acc q ->
        if Inst.acts_on ia q then acc
        else
          let p = slack.pred.(b * nq + q) in
          if p >= 0 && p <> a then Float.max acc slack.finish.(p) else acc)
      0. ib.Inst.qubits
  in
  let new_start = Float.max slack.start.(a) delay in
  let new_finish = new_start +. merged_latency in
  let succ_of id qubits =
    List.filter_map
      (fun q ->
        let c = slack.succ.(id * nq + q) in
        if c >= 0 then Some c else None)
      qubits
  in
  let succs =
    List.sort_uniq compare
      (List.filter
         (fun c -> c <> a && c <> b)
         (succ_of a ia.Inst.qubits @ succ_of b ib.Inst.qubits))
  in
  new_finish <= slack.makespan +. 1e-9
  && List.for_all
       (fun c -> new_finish <= slack.latest_start.(c) +. 1e-9)
       succs

(* the monotonicity bound for a candidate merge: the paper's pessimistic
   serial sum by default, except that absorbing a single 1-qubit gate is
   bounded by the model's prediction — a lone rotation folds into the
   block's local layers, and pricing that is a cheap, reliable
   optimal-control query rather than speculation *)
let merge_bound ~pessimism (ia : Inst.t) (ib : Inst.t) ~predicted =
  let single_one_qubit (i : Inst.t) = Inst.width i = 1 in
  match pessimism with
  | `Model -> predicted
  | `Serial ->
    if single_one_qubit ia || single_one_qubit ib then predicted
    else ia.Inst.latency +. ib.Inst.latency

let run ?(width_limit = 10) ?(max_rounds = 8) ?(pessimism = `Model) ~cost g =
  let initial_makespan = Gdg.makespan g in
  (* unordered id pairs packed into one int (ids stay far below 2^31):
     unboxed keys hash and compare without allocation in these innermost
     caches *)
  let pack a b = if a < b then (a lsl 31) lor b else (b lsl 31) lor a in
  let commute_cache : (int, bool) Hashtbl.t = Hashtbl.create 1024 in
  (* oracle queries with per-id summaries: a block is digested and
     classified once, not once per new pair *)
  let oracle_commute = Comm_group.oracle_commute () in
  let commute (x : Inst.t) (y : Inst.t) =
    let key = pack x.Inst.id y.Inst.id in
    match Hashtbl.find_opt commute_cache key with
    | Some v -> v
    | None ->
      let v = oracle_commute x y in
      Hashtbl.replace commute_cache key v;
      v
  in
  let cost_cache : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let merged_cost a b =
    (* normalized key: candidates are always oriented earlier-first on
       every shared chain, so (a, b) and (b, a) are never both queried
       and the min/max normalization (as in commute_cache) cannot alias
       distinct blocks *)
    let key = pack a b in
    match Hashtbl.find_opt cost_cache key with
    | Some v -> v
    | None ->
      let gates = (Gdg.find g a).Inst.gates @ (Gdg.find g b).Inst.gates in
      let v = cost gates in
      Hashtbl.replace cost_cache key v;
      v
  in
  (* persistent state maintained across merges and sweeps: commutation
     groups (refreshed on the merged support, which the qgdg suite pins
     as equivalent to a rebuild), chain positions, slack tables, and the
     candidate universe indexed by shared qubit *)
  let groups = Comm_group.build ~commute g in
  let slack = ref (compute_slack g) in
  let rank id =
    let s = !slack in
    if id < Array.length s.start && not (Float.is_nan s.start.(id)) then
      s.start.(id)
    else neg_infinity
  in
  (* {!Action.is_schedulable_tables} against the array-backed chain
     tables: same per-qubit test, O(shared qubits) array reads *)
  let schedulable (ia : Inst.t) (ib : Inst.t) =
    let s = !slack in
    let nq = s.nq in
    let a = ia.Inst.id and b = ib.Inst.id in
    a <> b
    &&
    let common = Inst.common_qubits ia ib in
    common <> []
    && List.for_all
         (fun q ->
           s.pos.((a * nq) + q) < s.pos.((b * nq) + q)
           && (Comm_group.same_group groups ~qubit:q a b
               || s.succ.((a * nq) + q) = b))
         common
  in
  (* each pair is registered under (q, endpoint) for every qubit its
     endpoints share — its stored common-qubit list makes removal
     possible after an endpoint has been merged away, and the per-node
     registry lets a merge invalidate only the pairs touching the nodes
     whose chain neighbourhood or group actually changed *)
  let universe : (int * int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let reg : (int * int, (int * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 4096
  in
  let reg_tbl key =
    match Hashtbl.find_opt reg key with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace reg key t;
      t
  in
  let add_pair ((a, b) as p) =
    if not (Hashtbl.mem universe p) then begin
      let common = Inst.common_qubits (Gdg.find g a) (Gdg.find g b) in
      Hashtbl.replace universe p common;
      List.iter
        (fun q ->
          Hashtbl.replace (reg_tbl (q, a)) p ();
          Hashtbl.replace (reg_tbl (q, b)) p ())
        common
    end
  in
  let remove_pair ((a, b) as p) =
    match Hashtbl.find_opt universe p with
    | None -> ()
    | Some common ->
      Hashtbl.remove universe p;
      List.iter
        (fun q ->
          (match Hashtbl.find_opt reg (q, a) with
          | Some t -> Hashtbl.remove t p
          | None -> ());
          match Hashtbl.find_opt reg (q, b) with
          | Some t -> Hashtbl.remove t p
          | None -> ())
        common
  in
  (* per-qubit candidate enumeration: a valid pair shares some qubit on
     which the two members are chain-adjacent or same-group, so walking
     one chain's consecutive pairs plus each group's ordered pairs
     (group lists preserve chain order) generates every candidate whose
     shared qubit this is — the union over qubits is exactly
     {!Action.candidates}, without the per-node group searches *)
  let pair_ok u v =
    Action.merged_width g u v <= width_limit
    && schedulable (Gdg.find g u) (Gdg.find g v)
  in
  let add_candidates_on q =
    let rec consec = function
      | u :: (v :: _ as rest) ->
        if pair_ok u v then add_pair (u, v);
        consec rest
      | _ -> ()
    in
    consec (Gdg.chain_ids g q);
    List.iter
      (fun group ->
        let rec pairs = function
          | [] -> ()
          | u :: rest ->
            List.iter (fun v -> if pair_ok u v then add_pair (u, v)) rest;
            pairs rest
        in
        pairs group)
      (Comm_group.groups_on groups q)
  in
  for q = 0 to Gdg.n_qubits g - 1 do
    add_candidates_on q
  done;
  (* After merging [a] and [b] into [merged], a pair's candidacy can flip
     only through a changed per-qubit certificate — same-group membership
     or chain adjacency on a shared qubit — and both are confined to a
     window around the splice. Groups outside the structurally-unchanged
     prefix/suffix of the old vs. new group lists ("middle" groups) hold
     every node whose group membership moved (equal-index ⟺ same-group
     survives an index shift, so untouched groups certify unchanged
     membership even when their positions slide); adjacency changes only
     at [merged]'s position and where [a]/[b] left their chains. The
     union of those nodes is the changed set: pairs registered under
     (q, changed node) are dropped, then each changed node re-proposes
     its chain-neighbour pairs and its current-group pairs, which covers
     every certificate a dropped-or-new candidate could hold on q.
     Positions only shift uniformly past the splice, so relative chain
     order — the remaining ingredient of candidacy — never changes for
     surviving pairs. *)
  let update_universe_after_merge ~a ~b (merged : Inst.t) ~old_groups
      ~old_neighbors =
    let s = !slack in
    let nq = s.nq in
    List.iter
      (fun q ->
        let old_gs = List.assoc q old_groups in
        let new_gs = Comm_group.groups_on groups q in
        let rec strip xs ys =
          match (xs, ys) with
          | x :: xs', y :: ys' when x = y -> strip xs' ys'
          | _ -> (xs, ys)
        in
        let mid_old, mid_new =
          let xs, ys = strip old_gs new_gs in
          let rx, ry = strip (List.rev xs) (List.rev ys) in
          (List.rev rx, List.rev ry)
        in
        let changed =
          List.sort_uniq compare
            (List.filter
               (fun x -> x >= 0)
               (a :: b :: merged.Inst.id
                :: s.pred.((merged.Inst.id * nq) + q)
                :: s.succ.((merged.Inst.id * nq) + q)
                :: (List.assoc q old_neighbors
                   @ List.concat mid_old @ List.concat mid_new)))
        in
        List.iter
          (fun x ->
            match Hashtbl.find_opt reg (q, x) with
            | None -> ()
            | Some pairs ->
              Hashtbl.fold (fun p () acc -> p :: acc) pairs []
              |> List.iter remove_pair)
          changed;
        List.iter
          (fun x ->
            if Gdg.mem g x then begin
              let p = s.pred.((x * nq) + q) and c = s.succ.((x * nq) + q) in
              if p >= 0 && pair_ok p x then add_pair (p, x);
              if c >= 0 && pair_ok x c then add_pair (x, c);
              match Comm_group.group_index groups ~qubit:q x with
              | exception Not_found -> ()
              | gi ->
                let group = List.nth (Comm_group.groups_on groups q) gi in
                (* group lists preserve chain order: members before [x]
                   are the earlier element of their pair *)
                let rec before = function
                  | [] -> ()
                  | w :: rest ->
                    if w = x then after rest
                    else begin
                      if pair_ok w x then add_pair (w, x);
                      before rest
                    end
                and after = function
                  | [] -> ()
                  | w :: rest ->
                    if pair_ok x w then add_pair (x, w);
                    after rest
                in
                before group
            end)
          changed)
      merged.Inst.qubits
  in
  let merges = ref 0 and rounds = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !rounds < max_rounds do
    incr rounds;
    let merged_this_round = ref 0 in
    (* inner sweeps: score the maintained universe, then apply best-first
       with rechecks against the live tables *)
    let sweep_again = ref true in
    while !sweep_again do
      sweep_again := false;
      let scored =
        Hashtbl.fold (fun p _ acc -> p :: acc) universe []
        |> List.filter_map (fun (a, b) ->
               Qobs.Metrics.tick "agg.attempted";
               let ia = Gdg.find g a and ib = Gdg.find g b in
               let predicted = merged_cost a b in
               let bound = merge_bound ~pessimism ia ib ~predicted in
               if monotonic g !slack a b ~merged_latency:bound then begin
                 let gain = ia.Inst.latency +. ib.Inst.latency -. predicted in
                 (* neutral-gain growth merges are allowed: they never
                    lengthen the schedule and enable later wide wins *)
                 if gain >= -1e-6 then Some (gain, a, b, predicted) else None
               end
               else begin
                 Qobs.Metrics.tick "agg.vetoed_monotonic";
                 None
               end)
        |> List.sort (fun (ga, a1, b1, _) (gb, a2, b2, _) ->
               match compare gb ga with
               | 0 -> compare (a1, b1) (a2, b2)
               | c -> c)
      in
      List.iter
        (fun (_, a, b, _) ->
          if
            Gdg.mem g a && Gdg.mem g b
            && Action.merged_width g a b <= width_limit
            && schedulable (Gdg.find g a) (Gdg.find g b)
            &&
            let predicted = merged_cost a b in
            let bound =
              merge_bound ~pessimism (Gdg.find g a) (Gdg.find g b) ~predicted
            in
            monotonic g !slack a b ~merged_latency:bound
          then begin
            let predicted = merged_cost a b in
            let old_chains =
              let ia = Gdg.find g a and ib = Gdg.find g b in
              List.map
                (fun q -> (q, Gdg.chain_ids g q))
                (List.sort_uniq compare (ia.Inst.qubits @ ib.Inst.qubits))
            in
            match Gdg.merge ~rank g ~latency:predicted a b with
            | exception Invalid_argument _ -> ()
            | merged ->
              Qobs.Metrics.tick "agg.accepted";
              incr merges;
              incr merged_this_round;
              sweep_again := true;
              (* pre-merge groups and splice neighbours, read before the
                 refresh / slack update overwrite them — the universe
                 diff needs both sides of the change *)
              let old_groups =
                List.map
                  (fun q -> (q, Comm_group.groups_on groups q))
                  merged.Inst.qubits
              in
              let old_neighbors =
                let s = !slack in
                let nq = s.nq in
                List.map
                  (fun q ->
                    ( q,
                      [ s.pred.((a * nq) + q); s.succ.((a * nq) + q);
                        s.pred.((b * nq) + q); s.succ.((b * nq) + q) ] ))
                  merged.Inst.qubits
              in
              Comm_group.refresh ~commute groups g ~qubits:merged.Inst.qubits;
              update_slack_after_merge g !slack ~old_chains ~a ~b merged;
              update_universe_after_merge ~a ~b merged ~old_groups
                ~old_neighbors
          end)
        scored
    done;
    (* optimal-control query: re-cost every block *)
    let recosted = ref false in
    List.iter
      (fun (i : Inst.t) ->
        let fresh = cost i.Inst.gates in
        if Float.abs (fresh -. i.Inst.latency) > 1e-9 then begin
          Gdg.set_latency g i.Inst.id fresh;
          recosted := true
        end)
      (Gdg.insts g);
    (* latencies moved globally, so the slack fixpoint is rebuilt once per
       round; groups, positions and the candidate universe are
       latency-independent and stay valid *)
    if !recosted then slack := compute_slack g;
    if !merged_this_round = 0 && not !recosted then continue_outer := false
  done;
  Qobs.Metrics.tick ~by:!rounds "agg.rounds";
  { merges = !merges;
    rounds = !rounds;
    initial_makespan;
    final_makespan = Gdg.makespan g }

(* The pre-incremental aggregator, kept verbatim as an executable
   specification: full slack recomputation after every accepted merge,
   full group rebuild and candidate re-enumeration per sweep, full
   topological cycle check inside every merge. The qcheck suite asserts
   {!run} is observationally identical (merge count, final makespan,
   certified result); it is also the honest baseline for the performance
   numbers in EXPERIMENTS.md. *)
let run_reference ?(width_limit = 10) ?(max_rounds = 8) ?(pessimism = `Model)
    ~cost g =
  let initial_makespan = Gdg.makespan g in
  let commute_cache : (int * int, bool) Hashtbl.t = Hashtbl.create 1024 in
  let commute (x : Inst.t) (y : Inst.t) =
    let key = (min x.Inst.id y.Inst.id, max x.Inst.id y.Inst.id) in
    match Hashtbl.find_opt commute_cache key with
    | Some v -> v
    | None ->
      let v = Qgdg.Commute.insts x y in
      Hashtbl.replace commute_cache key v;
      v
  in
  let cost_cache : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let merged_cost a b =
    let key = (min a b, max a b) in
    match Hashtbl.find_opt cost_cache key with
    | Some v -> v
    | None ->
      let gates = (Gdg.find g a).Inst.gates @ (Gdg.find g b).Inst.gates in
      let v = cost gates in
      Hashtbl.replace cost_cache key v;
      v
  in
  let merges = ref 0 and rounds = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !rounds < max_rounds do
    incr rounds;
    let merged_this_round = ref 0 in
    let sweep_again = ref true in
    while !sweep_again do
      sweep_again := false;
      let groups = ref (Comm_group.build ~commute g) in
      let slack = ref (compute_slack g) in
      let scored =
        Action.candidates g !groups ~width_limit
        |> List.filter_map (fun (a, b) ->
               let ia = Gdg.find g a and ib = Gdg.find g b in
               let predicted = merged_cost a b in
               let bound = merge_bound ~pessimism ia ib ~predicted in
               if monotonic g !slack a b ~merged_latency:bound then begin
                 let gain = ia.Inst.latency +. ib.Inst.latency -. predicted in
                 if gain >= -1e-6 then Some (gain, a, b, predicted) else None
               end
               else None)
        |> List.sort (fun (ga, a1, b1, _) (gb, a2, b2, _) ->
               match compare gb ga with
               | 0 -> compare (a1, b1) (a2, b2)
               | c -> c)
      in
      List.iter
        (fun (_, a, b, _) ->
          if
            Gdg.mem g a && Gdg.mem g b
            && Action.merged_width g a b <= width_limit
            && Action.is_schedulable g !groups a b
            &&
            let predicted = merged_cost a b in
            let bound =
              merge_bound ~pessimism (Gdg.find g a) (Gdg.find g b) ~predicted
            in
            monotonic g !slack a b ~merged_latency:bound
          then begin
            let predicted = merged_cost a b in
            match Gdg.merge g ~latency:predicted a b with
            | exception Invalid_argument _ -> ()
            | merged ->
              incr merges;
              incr merged_this_round;
              sweep_again := true;
              Comm_group.refresh ~commute !groups g
                ~qubits:merged.Inst.qubits;
              slack := compute_slack g
          end)
        scored
    done;
    let recosted = ref false in
    List.iter
      (fun (i : Inst.t) ->
        let fresh = cost i.Inst.gates in
        if Float.abs (fresh -. i.Inst.latency) > 1e-9 then begin
          Gdg.set_latency g i.Inst.id fresh;
          recosted := true
        end)
      (Gdg.insts g);
    if !merged_this_round = 0 && not !recosted then continue_outer := false
  done;
  { merges = !merges;
    rounds = !rounds;
    initial_makespan;
    final_makespan = Gdg.makespan g }
