(* Unit, integration and property tests for the MD engine. *)

open Mdcore

(* tolerance class: physical-drift (Swverify.Tol.drift) — accumulated
   rounding in physics sums, |a-b| <= eps + eps*max(|a|,|b|).  Pins
   needing bit-identity use Swverify.Tol.exact at the call site. *)
let feq ?(eps = 1e-9) a b = Swverify.Tol.close (Swverify.Tol.drift eps) a b

let check_float ?(eps = 1e-9) msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift eps) a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_uniform_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.uniform r 2.0 5.0 in
    Alcotest.(check bool) "in range" true (x >= 2.0 && x < 5.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 1 in
  let n = 20000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.05)

(* ------------------------------------------------------------------ *)
(* Vec3 / Box *)

let test_vec3_algebra () =
  let a = Vec3.make 1.0 2.0 3.0 and b = Vec3.make 4.0 5.0 6.0 in
  check_float "dot" 32.0 (Vec3.dot a b);
  check_float "norm2" 14.0 (Vec3.norm2 a);
  let c = Vec3.cross a b in
  check_float "cross x" (-3.0) c.Vec3.x;
  check_float "cross y" 6.0 c.Vec3.y;
  check_float "cross z" (-3.0) c.Vec3.z;
  check_float "cross orthogonal" 0.0 (Vec3.dot c a)

let test_vec3_flat_roundtrip () =
  let arr = Fbuf.create 9 in
  Vec3.set arr 1 (Vec3.make 7.0 8.0 9.0);
  let v = Vec3.get arr 1 in
  check_float "x" 7.0 v.Vec3.x;
  check_float "z" 9.0 v.Vec3.z

let test_box_wrap () =
  let b = Box.cubic 2.0 in
  let w = Box.wrap b (Vec3.make 2.5 (-0.5) 4.0) in
  check_float "x wrapped" 0.5 w.Vec3.x;
  check_float "y wrapped" 1.5 w.Vec3.y;
  check_float "z wrapped" 0.0 w.Vec3.z

let test_box_min_image () =
  let b = Box.cubic 2.0 in
  let d = Box.displacement b (Vec3.make 0.1 0.0 0.0) (Vec3.make 1.9 0.0 0.0) in
  check_float "short way around" 0.2 d.Vec3.x

let prop_box_min_image_bound =
  QCheck.Test.make ~name:"box: minimum image components within [-L/2, L/2]" ~count:300
    QCheck.(triple (float_range 0.5 10.0) (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
    (fun (l, x1, x2) ->
      let b = Box.cubic l in
      let d = Box.displacement b (Vec3.make x1 0.0 0.0) (Vec3.make x2 0.0 0.0) in
      Float.abs d.Vec3.x <= (l /. 2.0) +. 1e-9)

let prop_box_dist_symmetric =
  QCheck.Test.make ~name:"box: periodic distance is symmetric" ~count:200
    QCheck.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (x1, x2) ->
      let b = Box.cubic 3.0 in
      let a = Vec3.make x1 0.3 0.7 and c = Vec3.make x2 1.1 2.9 in
      feq ~eps:1e-12 (Box.dist2 b a c) (Box.dist2 b c a))

(* ------------------------------------------------------------------ *)
(* Forcefield / Lj *)

let test_ff_combination_rules () =
  let ff = Forcefield.spce in
  (* O-O self pair must be 4 eps sigma^6 / sigma^12 exactly *)
  let s6 = Forcefield.spce_o.Forcefield.sigma ** 6.0 in
  check_float "c6 OO" (4.0 *. 0.650 *. s6) (Forcefield.c6 ff 0 0);
  check_float "c12 OO" (4.0 *. 0.650 *. s6 *. s6) (Forcefield.c12 ff 0 0);
  (* H has no LJ: every pair involving H must vanish *)
  check_float "c6 OH" 0.0 (Forcefield.c6 ff 0 1);
  check_float "c12 HH" 0.0 (Forcefield.c12 ff 1 1)

let test_lj_minimum () =
  let c6 = Forcefield.c6 Forcefield.spce 0 0 and c12 = Forcefield.c12 Forcefield.spce 0 0 in
  let rm = Lj.r_min ~c6 ~c12 in
  check_float ~eps:1e-6 "r_min = 2^(1/6) sigma"
    (Float.pow 2.0 (1.0 /. 6.0) *. 0.3166) rm;
  (* force vanishes at the minimum *)
  check_float ~eps:1e-8 "zero force at r_min" 0.0 (Lj.force_over_r ~c6 ~c12 (rm *. rm));
  check_float ~eps:1e-6 "well depth = eps" 0.650 (Lj.well_depth ~c6 ~c12)

let test_lj_force_is_gradient () =
  let c6 = 1e-3 and c12 = 1e-6 in
  let r = 0.4 in
  let h = 1e-6 in
  let e rr = Lj.energy ~c6 ~c12 (rr *. rr) in
  let dedr = (e (r +. h) -. e (r -. h)) /. (2.0 *. h) in
  (* F = -dE/dr; force_over_r * r = |F| along r *)
  check_float ~eps:1e-5 "analytic = numeric gradient"
    (-.dedr) (Lj.force_over_r ~c6 ~c12 (r *. r) *. r)

let prop_lj_repulsive_inside_minimum =
  QCheck.Test.make ~name:"lj: force repulsive inside r_min, attractive outside" ~count:200
    QCheck.(float_range 0.2 2.0)
    (fun r ->
      let c6 = 1e-3 and c12 = 1e-6 in
      let rm = Lj.r_min ~c6 ~c12 in
      let f = Lj.force_over_r ~c6 ~c12 (r *. r) in
      if r < rm then f > 0.0 else f <= 1e-12)

(* ------------------------------------------------------------------ *)
(* Topology / Water *)

let test_topology_water_shape () =
  let t = Topology.water 10 in
  Alcotest.(check int) "atoms" 30 t.Topology.n_atoms;
  Alcotest.(check int) "constraints" 30 (Array.length t.Topology.constraints);
  check_float ~eps:1e-9 "neutral" 0.0 (Topology.total_charge t);
  Alcotest.(check int) "dof = 3N - Nc - 3" (90 - 30 - 3) (Topology.degrees_of_freedom t)

let test_topology_exclusions () =
  let t = Topology.water 3 in
  Alcotest.(check bool) "O-H1 excluded" true (Topology.excluded t 0 1);
  Alcotest.(check bool) "H1-H2 excluded" true (Topology.excluded t 1 2);
  Alcotest.(check bool) "across molecules not excluded" false (Topology.excluded t 0 3);
  Alcotest.(check bool) "symmetric" true (Topology.excluded t 2 0)

let test_water_geometry () =
  let st = Water.build ~molecules:27 ~seed:3 () in
  for m = 0 to 26 do
    let o = Vec3.get st.Md_state.pos (3 * m)
    and h1 = Vec3.get st.Md_state.pos ((3 * m) + 1)
    and h2 = Vec3.get st.Md_state.pos ((3 * m) + 2) in
    check_float ~eps:1e-9 "O-H1" Forcefield.spce_doh (Vec3.dist o h1);
    check_float ~eps:1e-9 "O-H2" Forcefield.spce_doh (Vec3.dist o h2);
    check_float ~eps:1e-9 "H-H" Forcefield.spce_dhh (Vec3.dist h1 h2)
  done

let test_water_density () =
  let st = Water.build ~molecules:216 ~seed:1 () in
  let v = Box.volume st.Md_state.box in
  check_float ~eps:1e-6 "33.4 molecules per nm^3" Water.molecules_per_nm3
    (216.0 /. v)

let test_water_no_overlap () =
  let st = Water.build ~molecules:64 ~seed:5 () in
  (* no two oxygens closer than 0.2 nm *)
  let b = st.Md_state.box in
  let ok = ref true in
  for m1 = 0 to 63 do
    for m2 = m1 + 1 to 63 do
      let d2 =
        Box.dist2 b (Vec3.get st.Md_state.pos (3 * m1)) (Vec3.get st.Md_state.pos (3 * m2))
      in
      if d2 < 0.04 then ok := false
    done
  done;
  Alcotest.(check bool) "no O-O overlap" true !ok

let test_water_thermalized () =
  let st = Water.build ~molecules:125 ~seed:2 () in
  check_float ~eps:1e-6 "exactly 300 K" 300.0 (Md_state.temperature st)

(* ------------------------------------------------------------------ *)
(* Cell_grid *)

let test_grid_neighbourhood_complete () =
  (* every point within min_cell of p must be visited *)
  let b = Box.cubic 4.0 in
  let rng = Rng.create 11 in
  let n = 200 in
  let pos = Fbuf.init (3 * n) (fun _ -> Rng.uniform rng 0.0 4.0) in
  let g = Cell_grid.build b ~min_cell:1.0 ~n ~point:(fun i -> Vec3.get pos i) in
  let p = Vec3.make 1.7 2.2 0.4 in
  let visited = Array.make n false in
  Cell_grid.iter_neighbourhood g p (fun i -> visited.(i) <- true);
  for i = 0 to n - 1 do
    if Box.dist2 b p (Vec3.get pos i) <= 1.0 then
      Alcotest.(check bool) (Printf.sprintf "point %d visited" i) true visited.(i)
  done

let test_grid_no_duplicates_small_box () =
  (* a box smaller than 3 cells per side aliases neighbourhoods; each
     point must still be visited exactly once *)
  let b = Box.cubic 1.5 in
  let n = 50 in
  let rng = Rng.create 13 in
  let pos = Fbuf.init (3 * n) (fun _ -> Rng.uniform rng 0.0 1.5) in
  let g = Cell_grid.build b ~min_cell:1.0 ~n ~point:(fun i -> Vec3.get pos i) in
  let count = Array.make n 0 in
  Cell_grid.iter_neighbourhood g (Vec3.make 0.1 0.1 0.1) (fun i ->
      count.(i) <- count.(i) + 1);
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "point %d once" i) 1 c)
    count

let test_grid_all_points_binned () =
  let b = Box.cubic 3.0 in
  let n = 100 in
  let rng = Rng.create 17 in
  let pos = Fbuf.init (3 * n) (fun _ -> Rng.uniform rng (-3.0) 6.0) in
  let g = Cell_grid.build b ~min_cell:0.5 ~n ~point:(fun i -> Vec3.get pos i) in
  let total = ref 0 in
  for c = 0 to Cell_grid.n_cells g - 1 do
    Cell_grid.iter_cell g c (fun _ -> incr total)
  done;
  Alcotest.(check int) "every point in exactly one cell" n !total

(* ------------------------------------------------------------------ *)
(* Cluster *)

let test_cluster_permutation_valid () =
  let st = Water.build ~molecules:40 ~seed:19 () in
  let n = Md_state.n_atoms st in
  let cl = Cluster.build st.Md_state.box st.Md_state.pos n in
  let seen = Array.make n false in
  Array.iter
    (fun a ->
      Alcotest.(check bool) "no duplicate" false seen.(a);
      seen.(a) <- true)
    cl.Cluster.order;
  Alcotest.(check bool) "all atoms present" true (Array.for_all Fun.id seen);
  Array.iteri
    (fun slot a -> Alcotest.(check int) "inverse" slot cl.Cluster.inv.(a))
    cl.Cluster.order

let test_cluster_gather_scatter_roundtrip () =
  let st = Water.build ~molecules:20 ~seed:23 () in
  let n = Md_state.n_atoms st in
  let cl = Cluster.build st.Md_state.box st.Md_state.pos n in
  let src = Fbuf.init (3 * n) float_of_int in
  let gathered = Array.make (3 * cl.Cluster.n_clusters * Cluster.size) 0.0 in
  Cluster.gather cl ~floats:3 src gathered;
  let back = Fbuf.create (3 * n) in
  Cluster.scatter_add cl ~floats:3 gathered back;
  Fbuf.iteri (fun i v -> check_float "roundtrip" (Fbuf.get src i) v) back

let test_cluster_radius_bounds_members () =
  let st = Water.build ~molecules:40 ~seed:29 () in
  let n = Md_state.n_atoms st in
  let cl = Cluster.build st.Md_state.box st.Md_state.pos n in
  for c = 0 to cl.Cluster.n_clusters - 1 do
    let ctr = Cluster.centroid cl c and r = Cluster.radius cl c in
    List.iter
      (fun a ->
        let d =
          Vec3.norm
            (Box.displacement st.Md_state.box (Vec3.get st.Md_state.pos a) ctr)
        in
        Alcotest.(check bool) "member inside sphere" true (d <= r +. 1e-9))
      (Cluster.members cl c)
  done

(* ------------------------------------------------------------------ *)
(* Pair_list *)

let pair_coverage_ok molecules seed =
  let st = Water.build ~molecules ~seed () in
  let n = Md_state.n_atoms st in
  let b = st.Md_state.box in
  let cl = Cluster.build b st.Md_state.pos n in
  let rlist = Float.min 1.0 (0.45 *. Box.min_edge b) in
  let pl = Pair_list.build b cl ~pos:st.Md_state.pos ~rlist () in
  (* count how many times each in-range atom pair is covered *)
  let cover = Hashtbl.create 1024 in
  Pair_list.iter_pairs pl (fun ci cj ->
      let ni = Cluster.count cl ci and nj = Cluster.count cl cj in
      for mi = 0 to ni - 1 do
        let a = Cluster.atom cl ci mi in
        let start = if ci = cj then mi + 1 else 0 in
        for mj = start to nj - 1 do
          let b' = Cluster.atom cl cj mj in
          let key = (min a b', max a b') in
          Hashtbl.replace cover key (1 + Option.value ~default:0 (Hashtbl.find_opt cover key))
        done
      done);
  let ok = ref true in
  for a = 0 to n - 1 do
    for b' = a + 1 to n - 1 do
      let within =
        Box.dist2 b (Vec3.get st.Md_state.pos a) (Vec3.get st.Md_state.pos b')
        <= rlist *. rlist
      in
      let c = Option.value ~default:0 (Hashtbl.find_opt cover (a, b')) in
      if within && c <> 1 then ok := false;
      if c > 1 then ok := false
    done
  done;
  !ok

let test_pair_list_covers_all_pairs () =
  Alcotest.(check bool) "coverage 40 molecules" true (pair_coverage_ok 40 31)

let test_pair_list_covers_small_system () =
  Alcotest.(check bool) "coverage 9 molecules" true (pair_coverage_ok 9 37)

let test_pair_list_full_doubles () =
  let st = Water.build ~molecules:30 ~seed:41 () in
  let n = Md_state.n_atoms st in
  let cl = Cluster.build st.Md_state.box st.Md_state.pos n in
  let half = Pair_list.build st.Md_state.box cl ~rlist:0.9 () in
  let full = Pair_list.to_full half in
  (* full list holds every off-diagonal pair twice, diagonal once *)
  let n_self = cl.Cluster.n_clusters in
  Alcotest.(check int) "full size" ((2 * Pair_list.n_pairs half) - n_self)
    (Pair_list.n_pairs full)

(* ------------------------------------------------------------------ *)
(* Coulomb special functions *)

let test_erfc_reference_values () =
  (* reference values from tables *)
  List.iter
    (fun (x, v) -> check_float ~eps:3e-7 (Printf.sprintf "erfc(%g)" x) v (Coulomb.erfc x))
    [ (0.0, 1.0); (0.5, 0.4795001); (1.0, 0.1572992); (2.0, 0.0046777); (-1.0, 1.8427008) ]

let test_ewald_beta_meets_tolerance () =
  let rc = 1.0 and tol = 1e-5 in
  let beta = Coulomb.ewald_beta ~rc ~tolerance:tol in
  check_float ~eps:1e-3 "erfc(beta rc)/rc = tol" tol (Coulomb.erfc (beta *. rc) /. rc)

let prop_erfc_decreasing =
  QCheck.Test.make ~name:"erfc: monotonically decreasing" ~count:200
    QCheck.(pair (float_range (-3.0) 3.0) (float_range 0.001 1.0))
    (fun (x, dx) -> Coulomb.erfc (x +. dx) <= Coulomb.erfc x +. 1e-12)

let prop_rf_energy_zero_at_cutoff =
  QCheck.Test.make ~name:"reaction field: energy continuous (zero) at cut-off" ~count:50
    QCheck.(float_range 0.5 2.0)
    (fun rc ->
      let krf, crf = Coulomb.rf_constants ~rc in
      Float.abs (Coulomb.rf_energy ~krf ~crf ~qq:1.0 (rc *. rc)) < 1e-10)

(* ------------------------------------------------------------------ *)
(* Fft *)

let test_fft_roundtrip () =
  let rng = Rng.create 43 in
  let n = 64 in
  let re = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let im = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let re0 = Array.copy re and im0 = Array.copy im in
  Fft.forward re im;
  Fft.inverse re im;
  Array.iteri (fun i v -> check_float ~eps:1e-12 "re roundtrip" re0.(i) v) re;
  Array.iteri (fun i v -> check_float ~eps:1e-12 "im roundtrip" im0.(i) v) im

let test_fft_delta_is_flat () =
  let n = 16 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Fft.forward re im;
  Array.iter (fun v -> check_float ~eps:1e-12 "flat spectrum" 1.0 v) re;
  Array.iter (fun v -> check_float ~eps:1e-12 "zero imaginary" 0.0 v) im

let test_fft_parseval () =
  let rng = Rng.create 47 in
  let n = 128 in
  let re = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let im = Array.make n 0.0 in
  let power = Array.fold_left (fun s x -> s +. (x *. x)) 0.0 re in
  Fft.forward re im;
  let spec = ref 0.0 in
  for i = 0 to n - 1 do
    spec := !spec +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i))
  done;
  check_float ~eps:1e-12 "Parseval" (power *. float_of_int n) !spec

let test_fft_matches_dft () =
  let n = 8 in
  let rng = Rng.create 53 in
  let re = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let im = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let dft_re = Array.make n 0.0 and dft_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    for j = 0 to n - 1 do
      let phi = -2.0 *. Float.pi *. float_of_int (k * j) /. float_of_int n in
      dft_re.(k) <- dft_re.(k) +. (re.(j) *. cos phi) -. (im.(j) *. sin phi);
      dft_im.(k) <- dft_im.(k) +. (re.(j) *. sin phi) +. (im.(j) *. cos phi)
    done
  done;
  Fft.forward re im;
  for k = 0 to n - 1 do
    check_float ~eps:1e-10 "re matches dft" dft_re.(k) re.(k);
    check_float ~eps:1e-10 "im matches dft" dft_im.(k) im.(k)
  done

let test_fft3_roundtrip () =
  let g = Fft.create_grid3 8 8 8 in
  let rng = Rng.create 59 in
  Array.iteri (fun i _ -> g.Fft.re.(i) <- Rng.uniform rng (-1.0) 1.0) g.Fft.re;
  let orig = Array.copy g.Fft.re in
  Fft.fft3 ~inverse:false g;
  Fft.fft3 ~inverse:true g;
  Fft.normalize3 g;
  Array.iteri (fun i v -> check_float ~eps:1e-11 "3d roundtrip" orig.(i) v) g.Fft.re

let test_fft_rejects_non_pow2 () =
  Alcotest.(check bool) "length 6 rejected" true
    (try
       Fft.forward (Array.make 6 0.0) (Array.make 6 0.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* PME + full electrostatics *)

(* total electrostatic energy: real-space (all pairs, min image) +
   reciprocal + self + excluded corrections *)
let total_coulomb_energy st beta grid_dim =
  let n = Md_state.n_atoms st in
  let topo = st.Md_state.topo in
  let box = st.Md_state.box in
  let energy = Energy.create () in
  Md_state.clear_forces st;
  let params = { Nonbonded.rcut = 0.49 *. Box.min_edge box; elec = Nonbonded.Ewald_real beta } in
  ignore (Nonbonded.brute_force st params energy);
  Nonbonded.excluded_corrections st params energy;
  let pme = Pme.create ~grid_dim ~box ~beta in
  Pme.spread pme ~pos:st.Md_state.pos ~charge:topo.Topology.charge ~n;
  let recip = Pme.solve pme in
  energy.Energy.coulomb_sr +. energy.Energy.coulomb_recip +. recip
  +. Coulomb.self_energy ~beta topo.Topology.charge

(* rock-salt lattice state: 2x2x2 conventional cells, ions +/- 1 *)
let nacl_state () =
  let cells = 2 in
  let a = 0.5 in
  let l = a *. float_of_int cells in
  let coords = ref [] in
  for cx = 0 to (2 * cells) - 1 do
    for cy = 0 to (2 * cells) - 1 do
      for cz = 0 to (2 * cells) - 1 do
        let q = if (cx + cy + cz) mod 2 = 0 then 1.0 else -1.0 in
        coords :=
          (Vec3.make
             (float_of_int cx *. a /. 2.0)
             (float_of_int cy *. a /. 2.0)
             (float_of_int cz *. a /. 2.0), q)
          :: !coords
      done
    done
  done;
  let atoms = Array.of_list (List.rev !coords) in
  let n = Array.length atoms in
  let topo =
    {
      Topology.n_atoms = n;
      type_of = Array.make n 1 (* H type: no LJ *);
      charge = Array.map snd atoms;
      mass = Array.make n 22.99;
      molecule = Array.init n Fun.id;
      bonds = [||];
      angles = [||];
      dihedrals = [||];
      constraints = [||];
      exclusions = Array.make n [||];
    }
  in
  let st = Md_state.create topo Forcefield.spce (Box.cubic l) in
  Array.iteri (fun i (p, _) -> Vec3.set st.Md_state.pos i p) atoms;
  st

let test_pme_madelung () =
  (* The Ewald/PME energy of rock salt must reproduce the Madelung
     constant 1.747565 per ion pair. *)
  let st = nacl_state () in
  let beta = 6.0 in
  let e = total_coulomb_energy st beta 32 in
  let n_pairs = float_of_int (Md_state.n_atoms st / 2) in
  let r_nn = 0.25 in
  let expected = -1.747565 *. Forcefield.ke *. n_pairs /. r_nn in
  check_float ~eps:2e-4 "Madelung energy" expected e

let test_pme_beta_independence () =
  (* The total Ewald energy must not depend on the splitting parameter
     (both betas keep erfc(beta*rc) negligible and the grid resolves
     the reciprocal tail). *)
  let st = Water.build ~molecules:32 ~seed:61 () in
  let e1 = total_coulomb_energy st 6.5 64 in
  let e2 = total_coulomb_energy st 8.0 64 in
  check_float ~eps:3e-3 "beta independence" e1 e2

let test_pme_forces_match_numeric_gradient () =
  (* analytic forces (real + recip + excl) vs central differences of
     the total electrostatic energy, for a couple of atoms *)
  let beta = 5.0 in
  let grid = 32 in
  let st = Water.build ~molecules:16 ~seed:67 () in
  let n = Md_state.n_atoms st in
  let topo = st.Md_state.topo in
  let params =
    { Nonbonded.rcut = 0.49 *. Box.min_edge st.Md_state.box; elec = Nonbonded.Ewald_real beta }
  in
  (* analytic forces *)
  Md_state.clear_forces st;
  let energy = Energy.create () in
  ignore (Nonbonded.brute_force st params energy);
  Nonbonded.excluded_corrections st params energy;
  let pme = Pme.create ~grid_dim:grid ~box:st.Md_state.box ~beta in
  Pme.spread pme ~pos:st.Md_state.pos ~charge:topo.Topology.charge ~n;
  ignore (Pme.solve pme);
  Pme.gather_forces pme ~pos:st.Md_state.pos ~charge:topo.Topology.charge ~n
    ~force:st.Md_state.force;
  let analytic = Fbuf.to_array st.Md_state.force in
  (* drop LJ contribution from analytic forces: recompute with pure
     charges only — brute_force already added LJ, so subtract it *)
  Md_state.clear_forces st;
  let e_lj = Energy.create () in
  let saved_charges = Array.copy topo.Topology.charge in
  Array.fill topo.Topology.charge 0 n 0.0;
  ignore (Nonbonded.brute_force st params e_lj);
  Array.blit saved_charges 0 topo.Topology.charge 0 n;
  let lj_force = st.Md_state.force in
  let coul_force = Array.mapi (fun i f -> f -. Fbuf.get lj_force i) analytic in
  (* numeric gradient on atoms 0 and 4, x and z *)
  let h = 2e-5 in
  List.iter
    (fun (atom, dim) ->
      let k = (3 * atom) + dim in
      let x0 = st.Md_state.pos.{k} in
      st.Md_state.pos.{k} <- x0 +. h;
      let ep = total_coulomb_energy st beta grid in
      st.Md_state.pos.{k} <- x0 -. h;
      let em = total_coulomb_energy st beta grid in
      st.Md_state.pos.{k} <- x0;
      let numeric = -.(ep -. em) /. (2.0 *. h) in
      check_float ~eps:2e-3 (Printf.sprintf "force atom %d dim %d" atom dim)
        numeric coul_force.(k))
    [ (0, 0); (4, 2) ]

let test_pme_spread_conserves_charge () =
  let st = Water.build ~molecules:16 ~seed:71 () in
  let n = Md_state.n_atoms st in
  let beta = 3.0 in
  let pme = Pme.create ~grid_dim:16 ~box:st.Md_state.box ~beta in
  Pme.spread pme ~pos:st.Md_state.pos ~charge:st.Md_state.topo.Topology.charge ~n;
  let total = Array.fold_left ( +. ) 0.0 pme.Pme.grid.Fft.re in
  check_float ~eps:1e-9 "grid total = total charge" 0.0 total

let test_pme_spline_partition_of_unity () =
  (* B-spline weights at any fractional position sum to 1 *)
  let rng = Rng.create 73 in
  for _ = 1 to 50 do
    let w = Rng.float rng in
    let s = ref 0.0 in
    for j = 0 to 3 do
      s := !s +. Pme.spline (w +. float_of_int j)
    done;
    check_float ~eps:1e-12 "partition of unity" 1.0 !s
  done

(* ------------------------------------------------------------------ *)
(* Bonded *)

let numeric_gradient_check ~build_topo ~pos_init ~eps =
  let topo = build_topo in
  let box = Box.cubic 10.0 in
  let n = topo.Topology.n_atoms in
  let pos = Fbuf.of_array pos_init in
  let force = Fbuf.create (3 * n) in
  let _e = Bonded.compute box topo pos force in
  let h = 1e-6 in
  let ok = ref true in
  for k = 0 to (3 * n) - 1 do
    let x0 = pos.{k} in
    pos.{k} <- x0 +. h;
    let ep = Bonded.compute box topo pos (Fbuf.create (3 * n)) in
    pos.{k} <- x0 -. h;
    let em = Bonded.compute box topo pos (Fbuf.create (3 * n)) in
    pos.{k} <- x0;
    let numeric = -.(ep -. em) /. (2.0 *. h) in
    if not (feq ~eps numeric (Fbuf.get force k)) then ok := false
  done;
  !ok

let test_bond_force_gradient () =
  let topo =
    {
      (Topology.water 1) with
      Topology.bonds = [| { Topology.i = 0; j = 1; r0 = 0.15; k = 1000.0 } |];
      constraints = [||];
    }
  in
  let pos = [| 0.0; 0.0; 0.0; 0.2; 0.05; -0.03; 0.5; 0.5; 0.5 |] in
  Alcotest.(check bool) "bond gradient" true
    (numeric_gradient_check ~build_topo:topo ~pos_init:pos ~eps:1e-4)

let test_angle_force_gradient () =
  let topo =
    {
      (Topology.water 1) with
      Topology.angles =
        [| { Topology.ai = 0; aj = 1; ak = 2; theta0 = 1.9; k_theta = 400.0 } |];
      constraints = [||];
    }
  in
  let pos = [| 0.1; 0.0; 0.0; 0.0; 0.12; 0.0; 0.15; 0.2; 0.1 |] in
  Alcotest.(check bool) "angle gradient" true
    (numeric_gradient_check ~build_topo:topo ~pos_init:pos ~eps:1e-4)

let test_dihedral_force_gradient () =
  let topo =
    {
      (Topology.water 2) with
      Topology.dihedrals =
        [| { Topology.di = 0; dj = 1; dk = 2; dl = 3; phi0 = 0.5; k_phi = 30.0; mult = 2 } |];
      constraints = [||];
    }
  in
  let pos =
    [| 0.0; 0.0; 0.0; 0.15; 0.0; 0.0; 0.2; 0.15; 0.0; 0.3; 0.2; 0.15; 1.0; 1.0; 1.0; 1.2; 1.0; 1.0 |]
  in
  Alcotest.(check bool) "dihedral gradient" true
    (numeric_gradient_check ~build_topo:topo ~pos_init:pos ~eps:1e-3)

let test_bond_energy_zero_at_equilibrium () =
  let topo =
    {
      (Topology.water 1) with
      Topology.bonds = [| { Topology.i = 0; j = 1; r0 = 0.2; k = 1000.0 } |];
      constraints = [||];
    }
  in
  let pos = Fbuf.of_array [| 0.0; 0.0; 0.0; 0.2; 0.0; 0.0; 1.0; 1.0; 1.0 |] in
  let e = Bonded.compute (Box.cubic 10.0) topo pos (Fbuf.create 9) in
  check_float ~eps:1e-12 "zero at r0" 0.0 e

(* ------------------------------------------------------------------ *)
(* Nonbonded: pair list vs brute force *)

let test_nonbonded_pairlist_matches_brute_force () =
  let st = Water.build ~molecules:64 ~seed:79 () in
  let n = Md_state.n_atoms st in
  let rcut = Float.min 0.9 (0.45 *. Box.min_edge st.Md_state.box) in
  let params = { Nonbonded.rcut; elec = Nonbonded.Reaction_field } in
  (* pair-list path *)
  let cl = Cluster.build st.Md_state.box st.Md_state.pos n in
  let pl = Pair_list.build st.Md_state.box cl ~pos:st.Md_state.pos ~rlist:rcut () in
  Md_state.clear_forces st;
  let e1 = Energy.create () in
  let n1 = Nonbonded.compute st cl pl params e1 in
  let f1 = Fbuf.copy st.Md_state.force in
  (* brute force path *)
  Md_state.clear_forces st;
  let e2 = Energy.create () in
  let n2 = Nonbonded.brute_force st params e2 in
  Alcotest.(check int) "same pair count" n2 n1;
  check_float ~eps:1e-9 "same LJ energy" e2.Energy.lj e1.Energy.lj;
  check_float ~eps:1e-9 "same Coulomb energy" e2.Energy.coulomb_sr e1.Energy.coulomb_sr;
  Fbuf.iteri
    (fun i f -> check_float ~eps:1e-9 (Printf.sprintf "force %d" i) f (Fbuf.get f1 i))
    st.Md_state.force

let test_nonbonded_newtons_third_law () =
  let st = Water.build ~molecules:32 ~seed:83 () in
  let n = Md_state.n_atoms st in
  let cl = Cluster.build st.Md_state.box st.Md_state.pos n in
  let pl = Pair_list.build st.Md_state.box cl ~pos:st.Md_state.pos ~rlist:0.6 () in
  Md_state.clear_forces st;
  let e = Energy.create () in
  ignore (Nonbonded.compute st cl pl { Nonbonded.rcut = 0.6; elec = Nonbonded.Reaction_field } e);
  let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
  for i = 0 to n - 1 do
    fx := !fx +. st.Md_state.force.{3 * i};
    fy := !fy +. st.Md_state.force.{(3 * i) + 1};
    fz := !fz +. st.Md_state.force.{(3 * i) + 2}
  done;
  check_float ~eps:1e-8 "sum fx" 0.0 !fx;
  check_float ~eps:1e-8 "sum fy" 0.0 !fy;
  check_float ~eps:1e-8 "sum fz" 0.0 !fz

(* ------------------------------------------------------------------ *)
(* Constraints *)

let test_shake_restores_geometry () =
  let st = Water.build ~molecules:8 ~seed:89 () in
  let shake = Constraints.create st.Md_state.topo in
  let ref_pos = Fbuf.copy st.Md_state.pos in
  (* perturb positions *)
  let rng = Rng.create 97 in
  for i = 0 to Fbuf.length st.Md_state.pos - 1 do
    st.Md_state.pos.{i} <- st.Md_state.pos.{i} +. Rng.uniform rng (-0.01) 0.01
  done;
  Alcotest.(check bool) "violated before" true
    (Constraints.max_violation shake st.Md_state.pos > 1e-4);
  let iters = Constraints.apply shake ~ref_pos ~pos:st.Md_state.pos in
  Alcotest.(check bool) "converged" true (iters < 500);
  Alcotest.(check bool) "satisfied after" true
    (Constraints.max_violation shake st.Md_state.pos < 1e-4)

let test_berendsen_is_deterministic_contraction () =
  let st = Water.build ~molecules:16 ~seed:23 ~temp:400.0 () in
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.1 () in
  let t0 = Md_state.temperature st in
  Thermostat.apply th st ~dt:0.002;
  let t1 = Md_state.temperature st in
  Alcotest.(check bool) "moves towards target" true (t1 < t0 && t1 > 300.0)

(* ------------------------------------------------------------------ *)
(* Integrator + Workflow *)

let test_leapfrog_harmonic_energy_conservation () =
  (* two atoms on a stiff bond: leapfrog conserves energy over many periods *)
  let topo =
    {
      (Topology.water 1) with
      Topology.bonds = [| { Topology.i = 0; j = 1; r0 = 0.2; k = 5000.0 } |];
      constraints = [||];
      exclusions = [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |];
    }
  in
  let st = Md_state.create topo Forcefield.spce (Box.cubic 10.0) in
  Vec3.set st.Md_state.pos 0 (Vec3.make 5.0 5.0 5.0);
  Vec3.set st.Md_state.pos 1 (Vec3.make 5.25 5.0 5.0);
  Vec3.set st.Md_state.pos 2 (Vec3.make 1.0 1.0 1.0);
  let dt = 0.0005 in
  let energy_at () =
    let f = Fbuf.create 9 in
    let pe = Bonded.compute st.Md_state.box topo st.Md_state.pos f in
    pe +. Md_state.kinetic_energy st
  in
  (* half-step offset start for leapfrog: run one tiny force+step first *)
  let e0 = ref None in
  for _ = 1 to 2000 do
    Md_state.clear_forces st;
    ignore (Bonded.compute st.Md_state.box topo st.Md_state.pos st.Md_state.force);
    Integrator.step st ~dt;
    if !e0 = None then e0 := Some (energy_at ())
  done;
  let e1 = energy_at () in
  (* leapfrog total energy wobbles O((dt*omega)^2) because KE is
     sampled at half steps; what must not happen is secular drift *)
  (match !e0 with
  | Some e -> check_float ~eps:2.5e-2 "no secular energy drift" e e1
  | None -> Alcotest.fail "no steps")

let test_workflow_water_stable () =
  (* a short real simulation: constraints hold, temperature sane,
     energy bounded *)
  let st = Water.build ~molecules:32 ~seed:103 () in
  let config =
    {
      Workflow.dt = 0.001;
      nstlist = 5;
      rlist = Float.min 1.0 (0.49 *. Box.min_edge st.Md_state.box);
      nb =
        {
          Nonbonded.rcut = Float.min 0.9 (0.45 *. Box.min_edge st.Md_state.box);
          elec = Nonbonded.Reaction_field;
        };
      pme_grid = None;
      thermostat = Some (Thermostat.create ~t_ref:300.0 ~tau:0.1 ());
    }
  in
  let w = Workflow.create ~config st in
  (* relax the generated lattice before dynamics, as GROMACS would *)
  let e_before = Workflow.minimize ~steps:5 w in
  let e_after = Workflow.minimize ~steps:60 w in
  Alcotest.(check bool) "minimizer lowers energy" true (e_after <= e_before);
  Md_state.thermalize st (Rng.create 7) 300.0;
  Workflow.run w 50;
  let shake = Constraints.create st.Md_state.topo in
  Alcotest.(check bool) "constraints hold" true
    (Constraints.max_violation shake st.Md_state.pos < 1e-3);
  let t = Workflow.temperature w in
  Alcotest.(check bool) "temperature in (100, 900)" true (t > 100.0 && t < 900.0);
  Alcotest.(check bool) "energy finite" true (Float.is_finite (Workflow.total_energy w))

let test_workflow_pme_water_runs () =
  let st = Water.build ~molecules:16 ~seed:107 () in
  let rcut = 0.45 *. Box.min_edge st.Md_state.box in
  let beta = Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let config =
    {
      Workflow.dt = 0.001;
      nstlist = 5;
      rlist = rcut;
      nb = { Nonbonded.rcut; elec = Nonbonded.Ewald_real beta };
      pme_grid = Some 16;
      thermostat = Some (Thermostat.create ~t_ref:300.0 ~tau:0.1 ());
    }
  in
  let w = Workflow.create ~config st in
  Workflow.run w 10;
  Alcotest.(check bool) "PME run finite" true (Float.is_finite (Workflow.total_energy w));
  Alcotest.(check bool) "recip energy nonzero" true
    (Float.abs w.Workflow.energy.Energy.coulomb_recip > 1e-6)

let test_workflow_momentum_conserved_without_thermostat () =
  let st = Water.build ~molecules:16 ~seed:109 () in
  let rcut = 0.45 *. Box.min_edge st.Md_state.box in
  let config =
    {
      Workflow.dt = 0.0005;
      nstlist = 5;
      rlist = rcut;
      nb = { Nonbonded.rcut; elec = Nonbonded.Reaction_field };
      pme_grid = None;
      thermostat = None;
    }
  in
  let w = Workflow.create ~config st in
  let momentum () =
    let px = ref 0.0 in
    for i = 0 to Md_state.n_atoms st - 1 do
      px := !px +. (st.Md_state.topo.Topology.mass.(i) *. st.Md_state.vel.{3 * i})
    done;
    !px
  in
  let p0 = momentum () in
  Workflow.run w 20;
  check_float ~eps:1e-6 "x momentum conserved" p0 (momentum ())

(* ------------------------------------------------------------------ *)
(* Step phases: the four pieces that compose Workflow.step *)

let check_exact msg a b =
  try Swverify.Tol.check ~what:msg Swverify.Tol.exact a b
  with Failure m -> Alcotest.fail m

let small_workflow ?(pme = false) ?thermostat ~seed () =
  let st = Water.build ~molecules:16 ~seed () in
  let rcut = 0.45 *. Box.min_edge st.Md_state.box in
  let elec, pme_grid =
    if pme then
      (Nonbonded.Ewald_real (Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5), Some 16)
    else (Nonbonded.Reaction_field, None)
  in
  let config =
    {
      Workflow.dt = 0.001;
      nstlist = 5;
      rlist = rcut;
      nb = { Nonbonded.rcut; elec };
      pme_grid;
      thermostat;
    }
  in
  Workflow.create ~config st

let test_phase_reset_keeps_kinetic () =
  let w = small_workflow ~pme:true ~seed:113 () in
  Workflow.compute_forces w;
  w.Workflow.energy.Energy.kinetic <- 5.0;
  Workflow.reset_forces w;
  Fbuf.iteri
    (fun i f -> check_exact (Printf.sprintf "force %d cleared" i) 0.0 f)
    w.Workflow.state.Md_state.force;
  let e = w.Workflow.energy in
  check_exact "lj" 0.0 e.Energy.lj;
  check_exact "coulomb_sr" 0.0 e.Energy.coulomb_sr;
  check_exact "coulomb_recip" 0.0 e.Energy.coulomb_recip;
  check_exact "bonded" 0.0 e.Energy.bonded;
  check_exact "kinetic kept" 5.0 e.Energy.kinetic

let test_phase_forces_are_additive () =
  (* each force phase only adds: the composed forces are the sum of
     what the short-range and the long-range/bonded phases give alone *)
  let w = small_workflow ~pme:true ~seed:127 () in
  let force = w.Workflow.state.Md_state.force in
  Workflow.reset_forces w;
  Workflow.short_range w;
  let f_sr = Fbuf.copy force and lj = w.Workflow.energy.Energy.lj in
  Workflow.reset_forces w;
  Workflow.long_range_and_bonded w;
  let f_lr = Fbuf.copy force
  and recip = w.Workflow.energy.Energy.coulomb_recip in
  Alcotest.(check bool) "long-range phase adds no LJ" true
    (w.Workflow.energy.Energy.lj = 0.0);
  Workflow.compute_forces w;
  Fbuf.iteri
    (fun i f ->
      check_float ~eps:1e-9 (Printf.sprintf "force %d" i)
        (Fbuf.get f_sr i +. Fbuf.get f_lr i) f)
    force;
  check_exact "LJ from the short-range phase" lj w.Workflow.energy.Energy.lj;
  check_exact "reciprocal from the long-range phase" recip
    w.Workflow.energy.Energy.coulomb_recip

let test_phase_short_range_matches_brute_force () =
  let w = small_workflow ~seed:131 () in
  let st = w.Workflow.state in
  Workflow.reset_forces w;
  Workflow.short_range w;
  let e = Energy.create () in
  let n = Nonbonded.brute_force st w.Workflow.config.Workflow.nb e in
  Alcotest.(check int) "pairs in cutoff recorded" n w.Workflow.pairs_in_cutoff;
  check_float ~eps:1e-9 "LJ" e.Energy.lj w.Workflow.energy.Energy.lj;
  check_float ~eps:1e-9 "Coulomb" e.Energy.coulomb_sr
    w.Workflow.energy.Energy.coulomb_sr

let test_phase_reaction_field_has_no_recip () =
  let w = small_workflow ~seed:137 () in
  Workflow.reset_forces w;
  Workflow.long_range_and_bonded w;
  check_exact "no reciprocal energy" 0.0 w.Workflow.energy.Energy.coulomb_recip;
  (* rigid SPC/E has no bonded terms: nothing moves the forces *)
  Fbuf.iteri
    (fun i f -> check_exact (Printf.sprintf "force %d" i) 0.0 f)
    w.Workflow.state.Md_state.force

let test_phase_step_is_composition () =
  let th () = Thermostat.create ~t_ref:300.0 ~tau:0.1 () in
  let a = small_workflow ~thermostat:(th ()) ~seed:139 ()
  and b = small_workflow ~thermostat:(th ()) ~seed:139 () in
  for s = 0 to 11 do
    Workflow.step a;
    if s mod b.Workflow.config.Workflow.nstlist = 0 then Workflow.neighbour_search b;
    Workflow.reset_forces b;
    Workflow.short_range b;
    Workflow.long_range_and_bonded b;
    Workflow.update b;
    b.Workflow.step_count <- b.Workflow.step_count + 1
  done;
  Alcotest.(check int) "steps" 12 a.Workflow.step_count;
  Fbuf.iteri
    (fun i x -> check_exact (Printf.sprintf "pos %d" i) x (Fbuf.get b.Workflow.state.Md_state.pos i))
    a.Workflow.state.Md_state.pos;
  Fbuf.iteri
    (fun i v -> check_exact (Printf.sprintf "vel %d" i) v (Fbuf.get b.Workflow.state.Md_state.vel i))
    a.Workflow.state.Md_state.vel;
  check_exact "total energy" (Workflow.total_energy a) (Workflow.total_energy b)

let test_phase_update_keeps_step_count () =
  let w = small_workflow ~seed:149 () in
  Workflow.compute_forces w;
  Workflow.update w;
  Alcotest.(check int) "update alone does not count a step" 0 w.Workflow.step_count

let test_phase_update_restores_constraints () =
  let w = small_workflow ~seed:151 () in
  Md_state.thermalize w.Workflow.state (Rng.create 3) 600.0;
  Workflow.compute_forces w;
  Workflow.update w;
  Alcotest.(check bool) "SHAKE applied" true
    (Constraints.max_violation w.Workflow.shake w.Workflow.state.Md_state.pos < 1e-6)

let test_phase_update_velocity_is_displacement () =
  (* without a thermostat the constrained velocity is exactly the
     constrained displacement over dt *)
  let w = small_workflow ~seed:157 () in
  let st = w.Workflow.state in
  let before = Fbuf.copy st.Md_state.pos in
  Workflow.compute_forces w;
  Workflow.update w;
  let inv_dt = 1.0 /. w.Workflow.config.Workflow.dt in
  Fbuf.iteri
    (fun k v ->
      check_exact (Printf.sprintf "vel %d" k)
        ((Fbuf.get st.Md_state.pos k -. Fbuf.get before k) *. inv_dt)
        v)
    st.Md_state.vel

let test_phase_update_records_kinetic () =
  let w =
    small_workflow ~thermostat:(Thermostat.create ~t_ref:300.0 ~tau:0.1 ())
      ~seed:163 ()
  in
  Workflow.compute_forces w;
  Workflow.update w;
  check_exact "kinetic of the updated state"
    (Md_state.kinetic_energy w.Workflow.state) w.Workflow.energy.Energy.kinetic

let test_workflow_rejects_short_rlist () =
  let st = Water.build ~molecules:8 ~seed:167 () in
  let config = { Workflow.default_config with Workflow.rlist = 0.5; pme_grid = None } in
  Alcotest.check_raises "rlist < rcut"
    (Invalid_argument "Workflow.create: rlist must be >= rcut") (fun () ->
      ignore (Workflow.create ~config st))

let test_minimize_keeps_constraints () =
  let w = small_workflow ~seed:173 () in
  ignore (Workflow.minimize ~steps:20 w);
  Alcotest.(check bool) "constraints hold after minimization" true
    (Constraints.max_violation w.Workflow.shake w.Workflow.state.Md_state.pos < 1e-6)

(* ------------------------------------------------------------------ *)
(* Thermostat, integrator, energy, constraints: unit behaviour *)

let test_berendsen_lambda_one_at_target () =
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.1 () in
  check_exact "lambda at t_ref" 1.0 (Thermostat.lambda th ~dt:0.002 ~temp:300.0);
  check_exact "lambda at 0 K" 1.0 (Thermostat.lambda th ~dt:0.002 ~temp:0.0)

let test_berendsen_lambda_clamped () =
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.002 () in
  check_exact "hot system clamped" 0.8 (Thermostat.lambda th ~dt:0.002 ~temp:1e6);
  check_exact "cold system clamped" 1.25 (Thermostat.lambda th ~dt:0.002 ~temp:1.0)

let test_berendsen_tau_dt_reaches_target () =
  (* tau = dt makes lambda^2 = T0/T: one application lands on T0 *)
  let st = Water.build ~molecules:16 ~seed:179 ~temp:400.0 () in
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.002 () in
  Thermostat.apply th st ~dt:0.002;
  check_float ~eps:1e-9 "temperature at target" 300.0 (Md_state.temperature st)

let test_berendsen_heats_cold_system () =
  let st = Water.build ~molecules:16 ~seed:181 ~temp:200.0 () in
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.1 () in
  let t0 = Md_state.temperature st in
  Thermostat.apply th st ~dt:0.002;
  let t1 = Md_state.temperature st in
  Alcotest.(check bool) "moves up towards target" true (t1 > t0 && t1 < 300.0)

let test_thermostat_rejects_bad_parameters () =
  Alcotest.check_raises "t_ref"
    (Invalid_argument "Thermostat.create: t_ref must be positive") (fun () ->
      ignore (Thermostat.create ~t_ref:0.0 ~tau:0.1 ()));
  Alcotest.check_raises "tau"
    (Invalid_argument "Thermostat.create: tau must be positive") (fun () ->
      ignore (Thermostat.create ~t_ref:300.0 ~tau:(-1.0) ()))

let three_free_atoms () =
  let topo = { (Topology.water 1) with Topology.constraints = [||] } in
  let st = Md_state.create topo Forcefield.spce (Box.cubic 10.0) in
  Vec3.set st.Md_state.pos 0 (Vec3.make 1.0 2.0 3.0);
  Vec3.set st.Md_state.pos 1 (Vec3.make 4.0 5.0 6.0);
  Vec3.set st.Md_state.pos 2 (Vec3.make 7.0 8.0 9.0);
  Vec3.set st.Md_state.vel 0 (Vec3.make 0.5 (-0.25) 1.0);
  Vec3.set st.Md_state.vel 1 (Vec3.make (-1.0) 0.0 0.125);
  Vec3.set st.Md_state.vel 2 (Vec3.make 0.0 2.0 (-0.5));
  st

let test_leapfrog_free_flight () =
  let st = three_free_atoms () in
  let pos0 = Fbuf.copy st.Md_state.pos and vel0 = Fbuf.copy st.Md_state.vel in
  Integrator.step st ~dt:0.01;
  Fbuf.iteri
    (fun k v -> check_exact (Printf.sprintf "vel %d unchanged" k) (Fbuf.get vel0 k) v)
    st.Md_state.vel;
  Fbuf.iteri
    (fun k x ->
      check_exact (Printf.sprintf "pos %d" k) (Fbuf.get pos0 k +. (0.01 *. Fbuf.get vel0 k)) x)
    st.Md_state.pos

let test_leapfrog_kick_then_drift () =
  let st = three_free_atoms () in
  let dt = 0.002 in
  let vel0 = Fbuf.copy st.Md_state.vel and pos0 = Fbuf.copy st.Md_state.pos in
  Fbuf.iteri (fun k _ -> Fbuf.set st.Md_state.force k (float_of_int (k - 4))) st.Md_state.force;
  Integrator.step st ~dt;
  let mass = st.Md_state.topo.Topology.mass in
  Fbuf.iteri
    (fun k v ->
      let v_exp = Fbuf.get vel0 k +. (float_of_int (k - 4) *. (dt /. mass.(k / 3))) in
      check_exact (Printf.sprintf "vel %d kicked by f dt/m" k) v_exp v;
      check_exact (Printf.sprintf "pos %d drifts with the new velocity" k)
        (Fbuf.get pos0 k +. (dt *. v_exp))
        (Fbuf.get st.Md_state.pos k))
    st.Md_state.vel

let test_leapfrog_rejects_bad_dt () =
  let st = three_free_atoms () in
  Alcotest.check_raises "dt = 0"
    (Invalid_argument "Integrator.step: dt must be positive") (fun () ->
      Integrator.step st ~dt:0.0)

let test_energy_sums_and_reset () =
  let e = Energy.create () in
  e.Energy.lj <- 1.0;
  e.Energy.coulomb_sr <- 2.0;
  e.Energy.coulomb_recip <- 4.0;
  e.Energy.bonded <- 8.0;
  e.Energy.kinetic <- 16.0;
  check_exact "potential" 15.0 (Energy.potential e);
  check_exact "total" 31.0 (Energy.total e);
  Energy.reset e;
  check_exact "potential after reset" 0.0 (Energy.potential e);
  check_exact "total after reset" 0.0 (Energy.total e)

let test_shake_preserves_centre_of_mass () =
  (* SHAKE moves each pair by equal and opposite momenta *)
  let st = Water.build ~molecules:8 ~seed:191 () in
  let shake = Constraints.create st.Md_state.topo in
  let ref_pos = Fbuf.copy st.Md_state.pos in
  let rng = Rng.create 193 in
  for i = 0 to Fbuf.length st.Md_state.pos - 1 do
    st.Md_state.pos.{i} <- st.Md_state.pos.{i} +. Rng.uniform rng (-0.01) 0.01
  done;
  let com () =
    let mass = st.Md_state.topo.Topology.mass in
    let c = Array.make 3 0.0 in
    Array.iteri
      (fun i m ->
        for d = 0 to 2 do
          c.(d) <- c.(d) +. (m *. st.Md_state.pos.{(3 * i) + d})
        done)
      mass;
    c
  in
  let before = com () in
  ignore (Constraints.apply shake ~ref_pos ~pos:st.Md_state.pos);
  let after = com () in
  for d = 0 to 2 do
    check_float ~eps:1e-9 (Printf.sprintf "COM axis %d" d) before.(d) after.(d)
  done

let test_shake_counts_water_constraints () =
  let st = Water.build ~molecules:8 ~seed:197 () in
  Alcotest.(check int) "three per rigid water" 24
    (Constraints.n_constraints (Constraints.create st.Md_state.topo))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_box_min_image_bound; prop_box_dist_symmetric;
      prop_lj_repulsive_inside_minimum; prop_erfc_decreasing;
      prop_rf_energy_zero_at_cutoff ]

let suites =
  [
    ( "mdcore.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
      ] );
    ( "mdcore.vec3_box",
      [
        Alcotest.test_case "algebra" `Quick test_vec3_algebra;
        Alcotest.test_case "flat array roundtrip" `Quick test_vec3_flat_roundtrip;
        Alcotest.test_case "wrap" `Quick test_box_wrap;
        Alcotest.test_case "minimum image" `Quick test_box_min_image;
      ] );
    ( "mdcore.forcefield",
      [
        Alcotest.test_case "combination rules" `Quick test_ff_combination_rules;
        Alcotest.test_case "LJ minimum" `Quick test_lj_minimum;
        Alcotest.test_case "LJ force = -dE/dr" `Quick test_lj_force_is_gradient;
      ] );
    ( "mdcore.topology",
      [
        Alcotest.test_case "water shape" `Quick test_topology_water_shape;
        Alcotest.test_case "exclusions" `Quick test_topology_exclusions;
      ] );
    ( "mdcore.water",
      [
        Alcotest.test_case "rigid geometry" `Quick test_water_geometry;
        Alcotest.test_case "liquid density" `Quick test_water_density;
        Alcotest.test_case "no overlaps" `Quick test_water_no_overlap;
        Alcotest.test_case "thermalized to 300 K" `Quick test_water_thermalized;
      ] );
    ( "mdcore.cell_grid",
      [
        Alcotest.test_case "neighbourhood complete" `Quick test_grid_neighbourhood_complete;
        Alcotest.test_case "no duplicates in tiny box" `Quick test_grid_no_duplicates_small_box;
        Alcotest.test_case "all points binned" `Quick test_grid_all_points_binned;
      ] );
    ( "mdcore.cluster",
      [
        Alcotest.test_case "valid permutation" `Quick test_cluster_permutation_valid;
        Alcotest.test_case "gather/scatter roundtrip" `Quick test_cluster_gather_scatter_roundtrip;
        Alcotest.test_case "radius bounds members" `Quick test_cluster_radius_bounds_members;
      ] );
    ( "mdcore.pair_list",
      [
        Alcotest.test_case "covers all pairs exactly once" `Slow test_pair_list_covers_all_pairs;
        Alcotest.test_case "covers small system" `Quick test_pair_list_covers_small_system;
        Alcotest.test_case "full list doubles" `Quick test_pair_list_full_doubles;
      ] );
    ( "mdcore.coulomb",
      [
        Alcotest.test_case "erfc reference values" `Quick test_erfc_reference_values;
        Alcotest.test_case "ewald beta solves tolerance" `Quick test_ewald_beta_meets_tolerance;
      ] );
    ( "mdcore.fft",
      [
        Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
        Alcotest.test_case "delta -> flat" `Quick test_fft_delta_is_flat;
        Alcotest.test_case "Parseval" `Quick test_fft_parseval;
        Alcotest.test_case "matches naive DFT" `Quick test_fft_matches_dft;
        Alcotest.test_case "3d roundtrip" `Quick test_fft3_roundtrip;
        Alcotest.test_case "rejects non-pow2" `Quick test_fft_rejects_non_pow2;
      ] );
    ( "mdcore.pme",
      [
        Alcotest.test_case "Madelung constant (NaCl)" `Slow test_pme_madelung;
        Alcotest.test_case "beta independence" `Slow test_pme_beta_independence;
        Alcotest.test_case "forces = -grad E" `Slow test_pme_forces_match_numeric_gradient;
        Alcotest.test_case "spread conserves charge" `Quick test_pme_spread_conserves_charge;
        Alcotest.test_case "spline partition of unity" `Quick test_pme_spline_partition_of_unity;
      ] );
    ( "mdcore.bonded",
      [
        Alcotest.test_case "bond force gradient" `Quick test_bond_force_gradient;
        Alcotest.test_case "angle force gradient" `Quick test_angle_force_gradient;
        Alcotest.test_case "dihedral force gradient" `Quick test_dihedral_force_gradient;
        Alcotest.test_case "bond energy zero at r0" `Quick test_bond_energy_zero_at_equilibrium;
      ] );
    ( "mdcore.nonbonded",
      [
        Alcotest.test_case "pair list = brute force" `Slow test_nonbonded_pairlist_matches_brute_force;
        Alcotest.test_case "Newton's third law" `Quick test_nonbonded_newtons_third_law;
      ] );
    ( "mdcore.constraints",
      [
        Alcotest.test_case "SHAKE restores geometry" `Quick test_shake_restores_geometry;
        Alcotest.test_case "SHAKE preserves centre of mass" `Quick
          test_shake_preserves_centre_of_mass;
        Alcotest.test_case "three per water" `Quick test_shake_counts_water_constraints;
      ] );
    ( "mdcore.thermostat",
      [
        Alcotest.test_case "Berendsen contraction" `Quick test_berendsen_is_deterministic_contraction;
        Alcotest.test_case "lambda 1 at target" `Quick test_berendsen_lambda_one_at_target;
        Alcotest.test_case "lambda clamped" `Quick test_berendsen_lambda_clamped;
        Alcotest.test_case "tau = dt reaches target" `Quick test_berendsen_tau_dt_reaches_target;
        Alcotest.test_case "heats a cold system" `Quick test_berendsen_heats_cold_system;
        Alcotest.test_case "rejects bad parameters" `Quick test_thermostat_rejects_bad_parameters;
      ] );
    ( "mdcore.integrator",
      [
        Alcotest.test_case "free flight" `Quick test_leapfrog_free_flight;
        Alcotest.test_case "kick then drift" `Quick test_leapfrog_kick_then_drift;
        Alcotest.test_case "rejects bad dt" `Quick test_leapfrog_rejects_bad_dt;
      ] );
    ( "mdcore.energy",
      [ Alcotest.test_case "sums and reset" `Quick test_energy_sums_and_reset ] );
    ( "mdcore.step_phases",
      [
        Alcotest.test_case "reset keeps kinetic" `Quick test_phase_reset_keeps_kinetic;
        Alcotest.test_case "force phases are additive" `Quick test_phase_forces_are_additive;
        Alcotest.test_case "short range = brute force" `Quick
          test_phase_short_range_matches_brute_force;
        Alcotest.test_case "reaction field: no reciprocal term" `Quick
          test_phase_reaction_field_has_no_recip;
        Alcotest.test_case "step = composed phases" `Quick test_phase_step_is_composition;
        Alcotest.test_case "update keeps step count" `Quick test_phase_update_keeps_step_count;
        Alcotest.test_case "update restores constraints" `Quick
          test_phase_update_restores_constraints;
        Alcotest.test_case "update velocity = displacement / dt" `Quick
          test_phase_update_velocity_is_displacement;
        Alcotest.test_case "update records kinetic energy" `Quick
          test_phase_update_records_kinetic;
        Alcotest.test_case "create rejects rlist < rcut" `Quick test_workflow_rejects_short_rlist;
        Alcotest.test_case "minimize keeps constraints" `Quick test_minimize_keeps_constraints;
      ] );
    ( "mdcore.dynamics",
      [
        Alcotest.test_case "leapfrog conserves energy" `Quick test_leapfrog_harmonic_energy_conservation;
        Alcotest.test_case "water run stable" `Slow test_workflow_water_stable;
        Alcotest.test_case "PME water run" `Slow test_workflow_pme_water_runs;
        Alcotest.test_case "momentum conserved" `Quick test_workflow_momentum_conserved_without_thermostat;
      ] );
    ("mdcore.properties", qsuite);
  ]
