(** The action space of instruction aggregation (paper §4.1).

    Two instructions may aggregate when:
    + they overlap (share at least one qubit);
    + on every shared qubit they are either in the same commutation group
      (siblings in the quantum GDG) or in immediate parent–child chain
      position; and
    + the pulses can be made contiguous — with operator-level commutation
      groups this holds whenever condition 2 does, because any group
      member can be scheduled last (first) in its group.

    The aggregate's width must also stay within the optimal-control unit's
    limit. *)

val is_schedulable : Qgdg.Gdg.t -> Qgdg.Comm_group.t -> int -> int -> bool
(** [is_schedulable g groups a b] — may [a]'s block absorb [b] (with [a]'s
    members first)? [b] must not precede [a] on any shared qubit. *)

val merged_width : Qgdg.Gdg.t -> int -> int -> int

val candidates :
  Qgdg.Gdg.t -> Qgdg.Comm_group.t -> width_limit:int -> (int * int) list
(** All schedulable (a, b) pairs within the width limit: immediate
    children and later same-group siblings of each node. *)
