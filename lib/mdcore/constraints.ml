(** SHAKE distance constraints.

    Rigid SPC/E water fixes the two O-H bonds and the H-H distance;
    SHAKE iteratively projects positions back onto the constraint
    manifold after each unconstrained update (the "Constraints" kernel
    of Table 1). *)

type t = {
  topo : Topology.t;
  tol : float;  (** relative tolerance on squared distances *)
  max_iter : int;
}

(** [create topo ?tol ?max_iter ()] is a SHAKE solver for [topo]'s
    constraint list. *)
let create ?(tol = 1e-8) ?(max_iter = 500) topo =
  if tol <= 0.0 then invalid_arg "Constraints.create: tol must be positive";
  { topo; tol; max_iter }

(** [n_constraints t] is the number of distance constraints. *)
let n_constraints t = Array.length t.topo.Topology.constraints

(** [apply t ~ref_pos ~pos] projects [pos] so every constraint [c]
    satisfies [|pos_i - pos_j| = c.dist], using displacement directions
    from [ref_pos] (positions before the unconstrained update).
    Returns the number of SHAKE iterations used. *)
let apply t ~(ref_pos : Fbuf.t) ~(pos : Fbuf.t) =
  let cs = t.topo.Topology.constraints in
  let mass = t.topo.Topology.mass in
  let iter = ref 0 and converged = ref false in
  while (not !converged) && !iter < t.max_iter do
    converged := true;
    incr iter;
    for k = 0 to Array.length cs - 1 do
      let c = cs.(k) in
      let i = c.Topology.ci and j = c.Topology.cj in
      let dx = Fbuf.unsafe_get pos (3 * i) -. Fbuf.unsafe_get pos (3 * j) in
      let dy =
        Fbuf.unsafe_get pos ((3 * i) + 1) -. Fbuf.unsafe_get pos ((3 * j) + 1)
      in
      let dz =
        Fbuf.unsafe_get pos ((3 * i) + 2) -. Fbuf.unsafe_get pos ((3 * j) + 2)
      in
      let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      let target2 = c.Topology.dist *. c.Topology.dist in
      let diff = d2 -. target2 in
      if Float.abs diff > t.tol *. target2 then begin
        converged := false;
        let rx =
          Fbuf.unsafe_get ref_pos (3 * i) -. Fbuf.unsafe_get ref_pos (3 * j)
        in
        let ry =
          Fbuf.unsafe_get ref_pos ((3 * i) + 1)
          -. Fbuf.unsafe_get ref_pos ((3 * j) + 1)
        in
        let rz =
          Fbuf.unsafe_get ref_pos ((3 * i) + 2)
          -. Fbuf.unsafe_get ref_pos ((3 * j) + 2)
        in
        let inv_mi = 1.0 /. mass.(i) and inv_mj = 1.0 /. mass.(j) in
        let dot = (rx *. dx) +. (ry *. dy) +. (rz *. dz) in
        let denom = 2.0 *. (inv_mi +. inv_mj) *. dot in
        if Float.abs denom > 1e-12 then begin
          let g = diff /. denom in
          let si = -.g *. inv_mi in
          Fbuf.unsafe_set pos (3 * i)
            (Fbuf.unsafe_get pos (3 * i) +. (si *. rx));
          Fbuf.unsafe_set pos ((3 * i) + 1)
            (Fbuf.unsafe_get pos ((3 * i) + 1) +. (si *. ry));
          Fbuf.unsafe_set pos ((3 * i) + 2)
            (Fbuf.unsafe_get pos ((3 * i) + 2) +. (si *. rz));
          let sj = g *. inv_mj in
          Fbuf.unsafe_set pos (3 * j)
            (Fbuf.unsafe_get pos (3 * j) +. (sj *. rx));
          Fbuf.unsafe_set pos ((3 * j) + 1)
            (Fbuf.unsafe_get pos ((3 * j) + 1) +. (sj *. ry));
          Fbuf.unsafe_set pos ((3 * j) + 2)
            (Fbuf.unsafe_get pos ((3 * j) + 2) +. (sj *. rz))
        end
      end
    done
  done;
  !iter

(** [max_violation t pos] is the largest relative constraint error in
    [pos]; used by tests and sanity assertions. *)
let max_violation t (pos : Fbuf.t) =
  Array.fold_left
    (fun m (c : Topology.constraint_) ->
      let d = Vec3.dist (Vec3.get pos c.Topology.ci) (Vec3.get pos c.Topology.cj) in
      Float.max m (Float.abs (d -. c.Topology.dist) /. c.Topology.dist))
    0.0 t.topo.Topology.constraints
