(* Binary heap of ids under a float key fixed at push time, ties by id;
   [desc] pops the largest pair first. *)
type heap = {
  mutable keys : float array;
  mutable ids : int array;
  mutable size : int;
  mutable desc : bool;
}

let before h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  if ki <> kj then ki < kj <> h.desc else h.ids.(i) < h.ids.(j) <> h.desc

let swap h i j =
  let k = h.keys.(i) and x = h.ids.(i) in
  h.keys.(i) <- h.keys.(j);
  h.ids.(i) <- h.ids.(j);
  h.keys.(j) <- k;
  h.ids.(j) <- x

let rec sift_up h i =
  let p = (i - 1) / 2 in
  if i > 0 && before h i p then begin
    swap h i p;
    sift_up h p
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < h.size && before h (l + 1) l then l + 1 else l in
  if c < h.size && before h c i then begin
    swap h i c;
    sift_down h c
  end

let heap_push h key id =
  if h.size = Array.length h.ids then begin
    h.keys <- Array.append h.keys (Array.make (h.size + 1) 0.);
    h.ids <- Array.append h.ids (Array.make (h.size + 1) 0)
  end;
  h.keys.(h.size) <- key;
  h.ids.(h.size) <- id;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let heap_pop h =
  let top = h.ids.(0) in
  h.size <- h.size - 1;
  swap h 0 h.size;
  sift_down h 0;
  top

type work = {
  mutable stamp : int array;  (* heap membership, epoch-tagged *)
  mutable epoch : int;
  heap : heap;
  mutable pending : int list;  (* backward seeds not yet drained *)
}

type t = {
  g : Gdg.t;
  nq : int;
  mutable node : Inst.t option array;
  mutable pred : int array;
  mutable succ : int array;
  mutable pos : int array;
  mutable start : float array;
  mutable finish : float array;
  mutable tail : float array;
  last : int array;
  mutable makespan : float;
  full : bool;
  work : work;
}

let ensure_capacity v id =
  let cap = Array.length v.start in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * cap) in
    let grow a def =
      let b = Array.make (ncap * (Array.length a / cap)) def in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    v.node <- grow v.node None;
    v.pred <- grow v.pred (-1);
    v.succ <- grow v.succ (-1);
    v.pos <- grow v.pos (-1);
    v.start <- grow v.start nan;
    v.finish <- grow v.finish nan;
    v.tail <- grow v.tail nan;
    v.work.stamp <- grow v.work.stamp 0
  end

let node_of v x = match v.node.(x) with Some i -> i | None -> assert false

(* The full build and the worklists compute a node with the same folds,
   so incremental and from-scratch tables agree bit for bit. An input
   not yet recomputed in a drain ([nan]) reads as 0 until it lands. *)
let fold_max v table links (inst : Inst.t) =
  List.fold_left
    (fun acc q ->
      let y = links.((inst.Inst.id * v.nq) + q) in
      if y < 0 then acc
      else
        let t = table.(y) in
        Float.max acc (if Float.is_nan t then 0. else t))
    0. inst.Inst.qubits

let asap_start v inst = fold_max v v.finish v.pred inst

let tail_length v (inst : Inst.t) =
  inst.Inst.latency +. fold_max v v.tail v.succ inst

(* Finishes never decrease along a chain edge, so the largest finish sits
   on the last node of some chain. *)
let chain_makespan v =
  Array.fold_left
    (fun mk x -> if x >= 0 && v.finish.(x) > mk then v.finish.(x) else mk)
    0. v.last

(* writes every pred/succ/pos entry of the chain's nodes on [q] *)
let link v q ids =
  let rec go k prev = function
    | [] -> v.last.(q) <- prev
    | x :: rest ->
      if v.full then v.pos.((x * v.nq) + q) <- k;
      v.pred.((x * v.nq) + q) <- prev;
      if prev >= 0 then v.succ.((prev * v.nq) + q) <- x;
      v.succ.((x * v.nq) + q) <- -1;
      go (k + 1) x rest
  in
  go 0 (-1) ids

let build ?(full = false) g =
  let nq = max 1 (Gdg.n_qubits g) and cap = max 1 (Gdg.next_id g) in
  let v =
    { g;
      nq;
      node = Array.make cap None;
      pred = Array.make (cap * nq) (-1);
      succ = Array.make (cap * nq) (-1);
      pos = (if full then Array.make (cap * nq) (-1) else [||]);
      start = Array.make cap nan;
      finish = Array.make cap nan;
      tail = (if full then Array.make cap nan else [||]);
      last = Array.make nq (-1);
      makespan = 0.;
      full;
      work =
        { stamp = Array.make cap 0;
          epoch = 0;
          pending = [];
          heap = { keys = [||]; ids = [||]; size = 0; desc = false } } }
  in
  for q = 0 to Gdg.n_qubits g - 1 do
    link v q (Gdg.chain_ids g q)
  done;
  (* Kahn over the chain edges: each node is computed after its inputs *)
  let indeg = Array.make cap 0 and queue = Queue.create () in
  Gdg.iter_insts g (fun i ->
      v.node.(i.Inst.id) <- Some i;
      List.iter
        (fun q ->
          let c = v.succ.((i.Inst.id * nq) + q) in
          if c >= 0 then indeg.(c) <- indeg.(c) + 1)
        i.Inst.qubits);
  Gdg.iter_insts g (fun i ->
      if indeg.(i.Inst.id) = 0 then Queue.add i.Inst.id queue);
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    order := x :: !order;
    let inst = node_of v x in
    v.start.(x) <- asap_start v inst;
    v.finish.(x) <- v.start.(x) +. inst.Inst.latency;
    List.iter
      (fun q ->
        let c = v.succ.((x * nq) + q) in
        if c >= 0 then begin
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then Queue.add c queue
        end)
      inst.Inst.qubits
  done;
  if List.length !order <> Gdg.size g then
    failwith "Sched_view: cyclic dependence graph";
  v.makespan <- chain_makespan v;
  (* [order] is reversed: successors first *)
  if full then
    List.iter (fun x -> v.tail.(x) <- tail_length v (node_of v x)) !order;
  v

let rank v id =
  if id < Array.length v.start && not (Float.is_nan v.start.(id)) then
    v.start.(id)
  else neg_infinity

let latest_start v id = v.makespan -. v.tail.(id)

(* a new drain: fresh membership stamps, and the heap order set before
   the first seed is pushed *)
let open_worklist v ~desc =
  v.work.epoch <- v.work.epoch + 1;
  v.work.heap.desc <- desc

let push v x =
  let w = v.work in
  if w.stamp.(x) <> w.epoch then begin
    w.stamp.(x) <- w.epoch;
    heap_push w.heap v.start.(x) x
  end

(* Worklist order and uniqueness. Forward work pops in ascending
   pre-merge ASAP start, backward work in descending current start, ties
   by id. ASAP start is a topological potential (Gdg.merge ~rank relies
   on the same fact): along an edge x -> y, start y >= finish x >= start
   x. So a node is normally popped after every changed input and
   recomputed once. The order is a cost choice only: a node is recomputed
   with the full-build fold, and its dependents are re-pushed whenever
   its value changes, so when the heap empties every node whose inputs
   changed has been computed from final inputs. Where the order errs
   (zero-latency ties, or the merged node, keyed at [a]'s old start,
   below a predecessor of [b]) the late change re-pushes the node. The
   equations over a DAG have one solution, so the tables equal a
   from-scratch build bit for bit. *)
let drain v ~dependents ~recompute =
  let h = v.work.heap in
  while h.size > 0 do
    let x = heap_pop h in
    v.work.stamp.(x) <- 0;
    let inst = node_of v x in
    if recompute inst then
      List.iter
        (fun q ->
          let y = dependents.((x * v.nq) + q) in
          if y >= 0 then push v y)
        inst.Inst.qubits
  done

let after_merge v ~a ~b (merged : Inst.t) =
  let m = merged.Inst.id and w = v.work in
  ensure_capacity v m;
  open_worklist v ~desc:false;
  (* the merged node's heap key; its finish stays [nan] until computed *)
  v.start.(m) <- v.start.(a);
  (* Seeds, read before the relink: the old chain followers of [a] and
     [b] have a new predecessor (forward), their old chain predecessors a
     new successor (backward). *)
  let fseeds = ref [ m ] in
  List.iter
    (fun q ->
      let seed dst x other = if x >= 0 && x <> other then dst := x :: !dst in
      let ka = (a * v.nq) + q and kb = (b * v.nq) + q in
      seed fseeds v.succ.(ka) b;
      seed fseeds v.succ.(kb) a;
      if v.full then begin
        let bseeds = ref w.pending in
        seed bseeds v.pred.(ka) b;
        seed bseeds v.pred.(kb) a;
        w.pending <- !bseeds
      end;
      List.iter
        (fun k ->
          v.pred.(k) <- -1;
          v.succ.(k) <- -1;
          if v.full then v.pos.(k) <- -1)
        [ ka; kb ];
      link v q (Gdg.chain_ids v.g q))
    merged.Inst.qubits;
  if v.full then w.pending <- m :: w.pending;
  List.iter (push v) !fseeds;
  v.node.(m) <- Some merged;
  List.iter
    (fun x ->
      v.node.(x) <- None;
      v.start.(x) <- nan;
      v.finish.(x) <- nan;
      if v.full then v.tail.(x) <- nan)
    [ a; b ];
  drain v ~dependents:v.succ ~recompute:(fun inst ->
      let x = inst.Inst.id in
      let s = asap_start v inst in
      let f = s +. inst.Inst.latency in
      let changed = not (v.start.(x) = s && v.finish.(x) = f) in
      v.start.(x) <- s;
      v.finish.(x) <- f;
      changed);
  v.makespan <- chain_makespan v

let update_tails v =
  if not v.full then invalid_arg "Sched_view.update_tails: not a full view";
  let w = v.work in
  open_worklist v ~desc:true;
  (* a seed merged away since it was recorded has no node and no tail *)
  List.iter (fun x -> if Option.is_some v.node.(x) then push v x) w.pending;
  w.pending <- [];
  drain v ~dependents:v.pred ~recompute:(fun inst ->
      let x = inst.Inst.id in
      let t = tail_length v inst in
      let changed = not (v.tail.(x) = t) in
      v.tail.(x) <- t;
      changed)
