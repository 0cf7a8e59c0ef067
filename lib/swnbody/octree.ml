(** Octree construction on the MPE.

    Barnes-Hut splits the work between the core types the way the MD
    workflow does: the serial, pointer-heavy tree build runs on the
    management core (charged as MPE flops and memory traffic), and the
    numeric traversal runs on the CPE mesh ({!Bh}).

    The tree is stored as flat parallel arrays — no boxed node
    records — so the traversal kernel can treat a node visit as one
    simulated DMA gather of {!node_bytes} and index children without
    chasing pointers.  Bodies are permuted into [order] so every
    leaf's bodies are contiguous: a leaf visit is a single gather of
    [count * body_bytes]. *)

type t = {
  n_nodes : int;
  cx : float array;  (** center of mass, x *)
  cy : float array;
  cz : float array;
  mass : float array;  (** total mass below the node *)
  half : float array;  (** half edge length of the cell *)
  child : int array;  (** 8 slots per node; -1 = empty octant *)
  first : int array;  (** leaf: first body slot in [order]; -1 inner *)
  count : int array;  (** leaf: body count; 0 for inner nodes *)
  order : int array;  (** body permutation; leaf bodies are contiguous *)
}

(** Bytes one simulated node gather moves: five doubles (COM x/y/z,
    mass, half-edge) plus the eight 4-byte child indices. *)
let node_bytes = (5 * 8) + (8 * 4)

(** Bytes per body in the traversal's working set: position (3) plus
    mass, as doubles. *)
let body_bytes = 4 * 8

(* growable flat node storage; doubling keeps the build O(n log n) *)
type buf = {
  mutable len : int;
  mutable bcx : float array;
  mutable bcy : float array;
  mutable bcz : float array;
  mutable bmass : float array;
  mutable bhalf : float array;
  mutable bchild : int array;
  mutable bfirst : int array;
  mutable bcount : int array;
}

let grow b =
  let cap = Array.length b.bcx in
  let gf a = Array.append a (Array.make cap 0.0) in
  b.bcx <- gf b.bcx;
  b.bcy <- gf b.bcy;
  b.bcz <- gf b.bcz;
  b.bmass <- gf b.bmass;
  b.bhalf <- gf b.bhalf;
  b.bchild <- Array.append b.bchild (Array.make (8 * cap) (-1));
  b.bfirst <- Array.append b.bfirst (Array.make cap (-1));
  b.bcount <- Array.append b.bcount (Array.make cap 0)

let push b =
  if b.len >= Array.length b.bcx then grow b;
  let i = b.len in
  b.len <- i + 1;
  i

(** [build ~n ~pos ~mass ~mpe ()] builds the octree over [n] bodies
    ([pos] is the flat xyz buffer).  Every level's center-of-mass
    pass and octant partition is charged to the MPE.  A leaf holds at
    most 8 bodies; cells subdivide until they fit or the
    depth cap is hit (coincident bodies would otherwise recurse
    forever). *)
let build ~n ~(pos : Mdcore.Fbuf.t) ~(mass : Mdcore.Fbuf.t)
    ~(mpe : Swarch.Mpe.t) () =
  if n < 1 then invalid_arg "Octree.build: no bodies";
  let leaf_max = 8 and max_depth = 24 in
  (* bounding cube *)
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to (3 * n) - 1 do
    let v = Mdcore.Fbuf.unsafe_get pos i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  Swarch.Mpe.charge_mem mpe (float_of_int (3 * n * 8));
  Swarch.Mpe.charge_flops mpe (float_of_int (6 * n));
  let c0 = 0.5 *. (!lo +. !hi) in
  let half0 = (0.5 *. (!hi -. !lo) *. 1.0001) +. 1e-12 in
  let order = Array.init n Fun.id in
  let scratch = Array.make n 0 in
  let cap = max 16 (4 * ((n / leaf_max) + 1)) in
  let b =
    {
      len = 0;
      bcx = Array.make cap 0.0;
      bcy = Array.make cap 0.0;
      bcz = Array.make cap 0.0;
      bmass = Array.make cap 0.0;
      bhalf = Array.make cap 0.0;
      bchild = Array.make (8 * cap) (-1);
      bfirst = Array.make cap (-1);
      bcount = Array.make cap 0;
    }
  in
  let octant_of x y z cx cy cz =
    (if x >= cx then 1 else 0)
    lor (if y >= cy then 2 else 0)
    lor if z >= cz then 4 else 0
  in
  let rec subdivide blo bhi ccx ccy ccz chalf depth =
    let m = bhi - blo in
    let idx = push b in
    (* center of mass over the slice: one pass, charged to the MPE *)
    let sm = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 and sz = ref 0.0 in
    for s = blo to bhi - 1 do
      let i = order.(s) in
      let w = Mdcore.Fbuf.unsafe_get mass i in
      sm := !sm +. w;
      sx := !sx +. (w *. Mdcore.Fbuf.unsafe_get pos (3 * i));
      sy := !sy +. (w *. Mdcore.Fbuf.unsafe_get pos ((3 * i) + 1));
      sz := !sz +. (w *. Mdcore.Fbuf.unsafe_get pos ((3 * i) + 2))
    done;
    Swarch.Mpe.charge_flops mpe (float_of_int (8 * m));
    Swarch.Mpe.charge_mem mpe (float_of_int (m * body_bytes));
    let tm = if !sm > 0.0 then !sm else 1.0 in
    b.bcx.(idx) <- !sx /. tm;
    b.bcy.(idx) <- !sy /. tm;
    b.bcz.(idx) <- !sz /. tm;
    b.bmass.(idx) <- !sm;
    b.bhalf.(idx) <- chalf;
    if m <= leaf_max || depth >= max_depth then begin
      b.bfirst.(idx) <- blo;
      b.bcount.(idx) <- m
    end
    else begin
      (* counting sort of the slice into its eight octants; the
         octant order (and hence the traversal order) is fixed, so
         the build is deterministic for any domain count *)
      let counts = Array.make 8 0 in
      for s = blo to bhi - 1 do
        let i = order.(s) in
        let o =
          octant_of
            (Mdcore.Fbuf.unsafe_get pos (3 * i))
            (Mdcore.Fbuf.unsafe_get pos ((3 * i) + 1))
            (Mdcore.Fbuf.unsafe_get pos ((3 * i) + 2))
            ccx ccy ccz
        in
        counts.(o) <- counts.(o) + 1
      done;
      let starts = Array.make 8 0 in
      let acc = ref 0 in
      for o = 0 to 7 do
        starts.(o) <- !acc;
        acc := !acc + counts.(o)
      done;
      let fill = Array.copy starts in
      for s = blo to bhi - 1 do
        let i = order.(s) in
        let o =
          octant_of
            (Mdcore.Fbuf.unsafe_get pos (3 * i))
            (Mdcore.Fbuf.unsafe_get pos ((3 * i) + 1))
            (Mdcore.Fbuf.unsafe_get pos ((3 * i) + 2))
            ccx ccy ccz
        in
        scratch.(blo + fill.(o)) <- i;
        fill.(o) <- fill.(o) + 1
      done;
      Array.blit scratch blo order blo m;
      Swarch.Mpe.charge_flops mpe (float_of_int (2 * m));
      Swarch.Mpe.charge_mem mpe (float_of_int (2 * m * 4));
      let h = 0.5 *. chalf in
      for o = 0 to 7 do
        if counts.(o) > 0 then begin
          let ox = if o land 1 <> 0 then ccx +. h else ccx -. h in
          let oy = if o land 2 <> 0 then ccy +. h else ccy -. h in
          let oz = if o land 4 <> 0 then ccz +. h else ccz -. h in
          let clo = blo + starts.(o) in
          let child = subdivide clo (clo + counts.(o)) ox oy oz h (depth + 1) in
          b.bchild.((8 * idx) + o) <- child
        end
      done
    end;
    idx
  in
  ignore (subdivide 0 n c0 c0 c0 half0 0);
  {
    n_nodes = b.len;
    cx = Array.sub b.bcx 0 b.len;
    cy = Array.sub b.bcy 0 b.len;
    cz = Array.sub b.bcz 0 b.len;
    mass = Array.sub b.bmass 0 b.len;
    half = Array.sub b.bhalf 0 b.len;
    child = Array.sub b.bchild 0 (8 * b.len);
    first = Array.sub b.bfirst 0 b.len;
    count = Array.sub b.bcount 0 b.len;
    order;
  }

let is_leaf t i = t.first.(i) >= 0

(** Total bytes a broadcast of the flat tree moves (used to price the
    tree distribution on the network track). *)
let bytes t = t.n_nodes * node_bytes
