(** SHAKE distance constraints: iterative projection of positions back
    onto the constraint manifold after each unconstrained update (the
    "Constraints" kernel of Table 1). *)

type t

(** [create ?tol ?max_iter topo] is a SHAKE solver for [topo]'s
    constraint list. *)
val create : ?tol:float -> ?max_iter:int -> Topology.t -> t

(** [n_constraints t] is the number of distance constraints. *)
val n_constraints : t -> int

(** [apply t ~ref_pos ~pos] projects [pos] so every constraint is
    satisfied, using displacement directions from [ref_pos].  Returns
    the number of SHAKE iterations used. *)
val apply : t -> ref_pos:Fbuf.t -> pos:Fbuf.t -> int

(** [max_violation t pos] is the largest relative constraint error. *)
val max_violation : t -> Fbuf.t -> float
