(* Tests for the platform abstraction: the lane-parametric SIMD unit
   against the historical 4-lane reference semantics, platform
   validation/registry/custom-file loading, the second built-in
   backend end to end through the kernels, and the platform stamp in
   checkpoints. *)

open Swarch
module Md = Mdcore
module K = Swgmx.Kernel_common

let r32 = Simd.round32

(* tolerance class: ulp-budget in spirit — lane-count comparisons of
   single-rounded values should agree to ~1 double ulp; expressed as a
   1e-12 drift via the audited swverify comparator *)
let feq a b = Swverify.Tol.close (Swverify.Tol.drift 1e-12) a b

let check_float msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift 1e-12) a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Simd.vec at 4 lanes against the historical floatv4 semantics: every
   lane-wise op is a single round32 of the double-precision result of
   already-rounded operands, hsum is the two-round pairwise tree, and
   each op charges exactly one vector instruction. *)

let finite_float = QCheck.float_range (-1e6) 1e6

let vec_of = Test_swarch.vec_of
let lanes = Test_swarch.lanes

let prop_v4_lanewise_ops_bitexact =
  QCheck.Test.make ~name:"simd: 4-lane ops match rounded reference" ~count:300
    QCheck.(
      pair
        (quad finite_float finite_float finite_float finite_float)
        (quad finite_float finite_float finite_float finite_float))
    (fun ((a0, a1, a2, a3), (b0, b1, b2, b3)) ->
      let c = Cost.create () in
      let x = vec_of [| a0; a1; a2; a3 |] and y = vec_of [| b0; b1; b2; b3 |] in
      let xs = lanes x and ys = lanes y in
      let lanewise op f =
        let v = Simd.zero 4 in
        op c v x y;
        Array.for_all Fun.id
          (Array.init 4 (fun i -> Simd.lane v i = r32 (f xs.(i) ys.(i))))
      in
      lanewise Simd.add_into ( +. )
      && lanewise Simd.sub_into ( -. )
      && lanewise Simd.mul_into ( *. )
      && c.Cost.simd_ops = 3.0)

let prop_v4_fma_bitexact =
  QCheck.Test.make ~name:"simd: 4-lane fma matches reference" ~count:300
    QCheck.(triple finite_float finite_float finite_float)
    (fun (a, b, d) ->
      let c = Cost.create () in
      let v = Simd.zero 4 in
      Simd.fma_into c v (vec_of (Array.make 4 a)) (vec_of (Array.make 4 b))
        (vec_of (Array.make 4 d));
      Simd.lane v 0 = r32 ((r32 a *. r32 b) +. r32 d) && c.Cost.simd_ops = 1.0)

let prop_v4_hsum_pairwise_tree =
  QCheck.Test.make ~name:"simd: 4-lane hsum is the 2-round tree" ~count:300
    QCheck.(quad finite_float finite_float finite_float finite_float)
    (fun (a, b, d, e) ->
      let c = Cost.create () in
      let v = vec_of [| a; b; d; e |] in
      let s = Simd.hsum c v in
      let l = lanes v in
      s = r32 (r32 (l.(0) +. l.(1)) +. r32 (l.(2) +. l.(3)))
      && c.Cost.simd_ops = 2.0)

(* the Fig 7 transpose against the six-vshuff reference at 4 lanes,
   and the width guards around it *)
let test_v4_transpose_matches_fig7 () =
  let c = Cost.create () and cr = Cost.create () in
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] and ys = [| 5.0; 6.0; 7.0; 8.0 |] in
  let zs = [| 9.0; 10.0; 11.0; 12.0 |] in
  let x = vec_of xs and y = vec_of ys and z = vec_of zs in
  Alcotest.(check (list (float 0.0)))
    "transpose = reference"
    (Array.to_list (Test_swarch.transpose3x4_ref cr xs ys zs))
    (Array.to_list (Test_swarch.transpose_into c x y z));
  check_float "six instructions each" cr.Cost.simd_ops c.Cost.simd_ops;
  Alcotest.check_raises "lane out of range"
    (Invalid_argument "Simd.lane: 4 not in 0..3") (fun () ->
      ignore (Simd.lane x 4));
  Alcotest.check_raises "8-lane transpose"
    (Invalid_argument "Simd.transpose3x4_into: width must be 4") (fun () ->
      Simd.transpose3x4_into c (Simd.zero 8) y z (Array.make 12 0.0));
  Alcotest.check_raises "short destination"
    (Invalid_argument "Simd.transpose3x4_into: dst < 12") (fun () ->
      Simd.transpose3x4_into c x y z (Array.make 11 0.0))

(* ------------------------------------------------------------------ *)
(* wider vectors *)

let test_vec8_basics () =
  let c = Cost.create () in
  let v = Simd.zero 8 in
  Simd.init_into v (fun i -> float_of_int (i + 1));
  Alcotest.(check int) "width" 8 (Simd.width v);
  let w = Simd.zero 8 in
  Simd.splat_into w 10.0;
  Simd.add_into c w v w;
  check_float "lane 7" 18.0 (Simd.lane w 7);
  check_float "one instruction regardless of lanes" 1.0 c.Cost.simd_ops

let test_vec8_hsum_three_rounds () =
  let c = Cost.create () in
  let v = vec_of (Array.init 8 (fun i -> float_of_int (i + 1))) in
  check_float "hsum 1..8" 36.0 (Simd.hsum c v);
  check_float "3 halving rounds" 3.0 c.Cost.simd_ops

(* the SW26010-Pro path into Fig 7: 8-lane accumulators are narrowed to
   one 4-lane register each, then transposed *)
let test_vec8_narrow_then_transpose () =
  let c = Cost.create () and cr = Cost.create () in
  let acc k = vec_of (Array.init 8 (fun i -> float_of_int ((10 * k) + i + 1))) in
  let narrow v =
    let n = Simd.zero 4 in
    Simd.narrow_into c n v;
    n
  in
  let x = narrow (acc 0) and y = narrow (acc 1) and z = narrow (acc 2) in
  Alcotest.(check (list (float 0.0)))
    "narrowed x" [ 6.0; 8.0; 10.0; 12.0 ] (Array.to_list (lanes x));
  let d = Test_swarch.transpose_into c x y z in
  Alcotest.(check (list (float 0.0)))
    "narrowed then transposed"
    (Array.to_list (Test_swarch.transpose3x4_ref cr (lanes x) (lanes y) (lanes z)))
    (Array.to_list d);
  check_float "3 folds + 6 shuffles" 9.0 c.Cost.simd_ops

let test_vec_hsum_part_and_narrow () =
  let c = Cost.create () in
  let v = vec_of (Array.init 8 (fun i -> float_of_int (i + 1))) in
  (* a full-width partial sum is hsum; the upper half sums on its own *)
  check_float "whole range = hsum" (Simd.hsum (Cost.create ()) v)
    (Simd.hsum_part c v 0 8);
  check_float "upper half" 26.0 (Simd.hsum_part (Cost.create ()) v 4 4);
  check_float "3 halving rounds" 3.0 c.Cost.simd_ops;
  Cost.reset c;
  (* narrowing 8 -> 4 folds the upper half on, one instruction *)
  let n = Simd.zero 4 in
  Simd.narrow_into c n v;
  Alcotest.(check int) "narrowed width" 4 (Simd.width n);
  check_float "lane 0 = 1+5" 6.0 (Simd.lane n 0);
  check_float "lane 3 = 4+8" 12.0 (Simd.lane n 3);
  check_float "one fold instruction" 1.0 c.Cost.simd_ops;
  (* narrowing to the current width is a free identity *)
  Simd.narrow_into c n n;
  check_float "identity narrow" 6.0 (Simd.lane n 0);
  check_float "still one instruction" 1.0 c.Cost.simd_ops

(* ------------------------------------------------------------------ *)
(* Platform.validate *)

let test_validate_rejects_zero_lanes () =
  let bad = { Platform.default with Platform.simd_lanes = 0 } in
  Alcotest.check_raises "zero lanes"
    (Invalid_argument "Platform: simd_lanes must be positive") (fun () ->
      Platform.validate bad);
  (* only the widths the vector kernels fold onto Fig 7 are machines *)
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "%d lanes" w)
        (Invalid_argument
           (Printf.sprintf "Platform: simd_lanes must be 4 or 8 (got %d)" w))
        (fun () ->
          Platform.validate { Platform.default with Platform.simd_lanes = w }))
    [ 2; 6; 16 ]

let test_validate_rejects_empty_dma_curve () =
  let bad = { Platform.default with Platform.dma_points = [||] } in
  Alcotest.check_raises "empty curve"
    (Invalid_argument "Platform: dma_points must be non-empty") (fun () ->
      Platform.validate bad)

let test_validate_rejects_non_monotone_curve () =
  let bad =
    {
      Platform.default with
      Platform.dma_points = [| (8, 1e9); (256, 2e9); (128, 3e9) |];
    }
  in
  Alcotest.check_raises "unsorted sizes"
    (Invalid_argument "Platform: dma_points must be size-sorted") (fun () ->
      Platform.validate bad)

let test_builtins_valid () =
  List.iter Platform.validate Platform.builtin;
  Alcotest.(check bool) "default is sw26010" true
    (Platform.default == Platform.sw26010)

(* ------------------------------------------------------------------ *)
(* registry and custom loader *)

let test_registry_finds_builtins () =
  Alcotest.(check bool) "sw26010" true
    (Platform.find "sw26010" = Some Platform.sw26010);
  Alcotest.(check bool) "sw26010_pro" true
    (Platform.find "sw26010_pro" = Some Platform.sw26010_pro);
  Alcotest.(check bool) "unknown" true (Platform.find "cray-1" = None);
  Alcotest.(check bool) "names lists both" true
    (List.mem "sw26010" (Platform.names ())
    && List.mem "sw26010_pro" (Platform.names ()))

let test_resolve_unknown_fails () =
  match Platform.resolve "no-such-platform" with
  | _ -> Alcotest.fail "resolved a nonexistent platform"
  | exception Invalid_argument _ -> ()

let test_custom_of_string () =
  let p =
    Platform.of_string
      "base = sw26010\nname = tuned\n# doubled LDM\nldm_kb = 128\nsimd_lanes \
       = 8\n"
  in
  Alcotest.(check string) "name" "tuned" p.Platform.name;
  Alcotest.(check int) "ldm" (128 * 1024) p.Platform.ldm_bytes;
  Alcotest.(check int) "lanes" 8 p.Platform.simd_lanes;
  Alcotest.(check int) "inherited cpes" Platform.sw26010.Platform.cpe_count
    p.Platform.cpe_count

let test_custom_dma_curve_and_errors () =
  let p =
    Platform.of_string "base = sw26010\ndma_curve = 8:1e9, 128:2e9, 512:4e9\n"
  in
  Alcotest.(check int) "curve points" 3 (Array.length p.Platform.dma_points);
  check_float "curve bw" 2e9 (snd p.Platform.dma_points.(1));
  (match Platform.of_string "base = sw26010\nwarp_drive = 9\n" with
  | _ -> Alcotest.fail "unknown field accepted"
  | exception Invalid_argument _ -> ());
  match Platform.of_string "base = atari2600\n" with
  | _ -> Alcotest.fail "unknown base accepted"
  | exception Invalid_argument _ -> ()

let test_register_validates () =
  (match
     Platform.register { Platform.sw26010 with Platform.simd_lanes = -1 }
   with
  | () -> Alcotest.fail "invalid platform registered"
  | exception Invalid_argument _ -> ());
  let p = { Platform.sw26010_pro with Platform.name = "sw26010_pro_tweaked" } in
  Platform.register p;
  Alcotest.(check bool) "registered found" true
    (Platform.find "sw26010_pro_tweaked" = Some p)

(* ------------------------------------------------------------------ *)
(* the second backend end to end: kernels on the SW26010-Pro must
   still reproduce the double-precision reference physics, with the
   8-lane vector path and the bigger LDM geometry *)

let setup cfg =
  let st = Md.Water.build ~molecules:40 ~seed:7 () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs = Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut () in
  let sys =
    K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
      ~pos:st.Md.Md_state.pos
  in
  (st, sys, pairs)

let test_pro_variant_matches_reference variant () =
  let cfg = Platform.sw26010_pro in
  let st, sys, pairs = setup cfg in
  Md.Md_state.clear_forces st;
  let e = Md.Energy.create () in
  ignore (Md.Nonbonded.compute st sys.K.cl pairs sys.K.params e);
  let ref_f = Md.Fbuf.to_array st.Md.Md_state.force in
  let cg = Core_group.create cfg in
  let outcome = Swgmx.Kernel.run sys pairs cg variant in
  let fb = Md.Fbuf.create (3 * Md.Md_state.n_atoms st) in
  K.scatter_forces sys outcome.Swgmx.Kernel.result fb;
  let f = Md.Fbuf.to_array fb in
  let scale =
    Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 ref_f
  in
  (* tolerance class: ulp-budget at mixed-precision force scale *)
  try
    Swverify.Buf.check_arrays
      ~what:(Swgmx.Variant.name variant ^ "/pro forces")
      (Swverify.Tol.rel_abs ~rel:0.0 ~abs:(2e-4 *. scale))
      ref_f f
  with Failure m -> Alcotest.fail m

let test_pro_geometry_follows_ldm () =
  let base = Platform.sw26010 and pro = Platform.sw26010_pro in
  Alcotest.(check int) "read lines x4" (4 * K.read_lines base)
    (K.read_lines pro);
  Alcotest.(check int) "write lines x4" (4 * K.write_lines base)
    (K.write_lines pro)

let test_vector_kernel_rejects_bad_lane_count () =
  (* Platform.validate refuses a 6-lane machine at the boundary, so the
     core group is a valid one; the kernel's own guard still sees the
     6-lane system snapshot *)
  let cfg = { Platform.sw26010 with Platform.simd_lanes = 6 } in
  let _, sys, pairs = setup cfg in
  let cg = Core_group.create Platform.sw26010 in
  match Swgmx.Kernel.run sys pairs cg Swgmx.Variant.Vec with
  | _ -> Alcotest.fail "6-lane vector kernel accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* platform stamp in checkpoints *)

let test_checkpoint_records_platform () =
  let n = 2 in
  let pos = Md.Fbuf.init (3 * n) float_of_int in
  let vel = Md.Fbuf.init (3 * n) float_of_int in
  let ck =
    Swio.Checkpoint.capture ~platform:"sw26010_pro" ~step:0 ~pos ~vel
      ~n_atoms:n ()
  in
  let ck2 = Swio.Checkpoint.of_string (Swio.Checkpoint.to_string ck) in
  Alcotest.(check string) "platform survives round-trip" "sw26010_pro"
    ck2.Swio.Checkpoint.platform;
  (* a version-1 file has no platform line and matches anything *)
  let v1 =
    "swgmx-checkpoint 1\n0 1\n"
    ^ String.concat "" (List.init 6 (fun _ -> "0x1p0\n"))
  in
  Alcotest.(check string) "v1 parses with unknown platform" ""
    (Swio.Checkpoint.of_string v1).Swio.Checkpoint.platform

let test_restart_rejects_platform_mismatch () =
  let molecules = 8 and seed = 3 and steps = 6 in
  let _, st, _ =
    Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~checkpoint_every:2
      ~sample_every:2 ()
  in
  let n = Md.Md_state.n_atoms st in
  let ck =
    Swio.Checkpoint.capture ~platform:"sw26010_pro" ~step:2
      ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel ~n_atoms:n ()
  in
  match
    Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~restart:ck
      ~sample_every:2 ()
  with
  | _ -> Alcotest.fail "platform-mismatched restart accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names both platforms" true
        (let has s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has msg "sw26010_pro" && has msg "sw26010")

let test_restart_accepts_matching_platform () =
  let molecules = 8 and seed = 3 and steps = 6 in
  let ck = ref None in
  let _ =
    Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~checkpoint_every:2
      ~on_checkpoint:(fun c -> ck := Some c)
      ~sample_every:2 ()
  in
  match !ck with
  | None -> Alcotest.fail "no checkpoint captured"
  | Some ck ->
      Alcotest.(check string) "stamped with active platform"
        Platform.default.Platform.name ck.Swio.Checkpoint.platform;
      if ck.Swio.Checkpoint.step >= steps then ()
      else
        ignore
          (Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~restart:ck
             ~sample_every:2 ())

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "platform.simd",
      qsuite
        [
          prop_v4_lanewise_ops_bitexact;
          prop_v4_fma_bitexact;
          prop_v4_hsum_pairwise_tree;
        ]
      @ [
          Alcotest.test_case "Fig 7 transpose reference" `Quick test_v4_transpose_matches_fig7;
          Alcotest.test_case "8-lane basics" `Quick test_vec8_basics;
          Alcotest.test_case "8-lane hsum rounds" `Quick
            test_vec8_hsum_three_rounds;
          Alcotest.test_case "8-lane narrow + transpose" `Quick
            test_vec8_narrow_then_transpose;
          Alcotest.test_case "hsum_part and narrow" `Quick test_vec_hsum_part_and_narrow;
        ] );
    ( "platform.registry",
      [
        Alcotest.test_case "rejects zero/unsupported lanes" `Quick
          test_validate_rejects_zero_lanes;
        Alcotest.test_case "rejects empty DMA curve" `Quick
          test_validate_rejects_empty_dma_curve;
        Alcotest.test_case "rejects non-monotone curve" `Quick
          test_validate_rejects_non_monotone_curve;
        Alcotest.test_case "builtins valid" `Quick test_builtins_valid;
        Alcotest.test_case "registry finds builtins" `Quick
          test_registry_finds_builtins;
        Alcotest.test_case "resolve unknown fails" `Quick
          test_resolve_unknown_fails;
        Alcotest.test_case "custom file inherits base" `Quick
          test_custom_of_string;
        Alcotest.test_case "custom curve + bad fields" `Quick
          test_custom_dma_curve_and_errors;
        Alcotest.test_case "register validates" `Quick test_register_validates;
      ] );
    ( "platform.pro",
      [
        Alcotest.test_case "Vec matches reference" `Quick
          (test_pro_variant_matches_reference Swgmx.Variant.Vec);
        Alcotest.test_case "Mark matches reference" `Quick
          (test_pro_variant_matches_reference Swgmx.Variant.Mark);
        Alcotest.test_case "Cache matches reference" `Quick
          (test_pro_variant_matches_reference Swgmx.Variant.Cache);
        Alcotest.test_case "geometry follows LDM" `Quick
          test_pro_geometry_follows_ldm;
        Alcotest.test_case "rejects non-multiple lanes" `Quick
          test_vector_kernel_rejects_bad_lane_count;
      ] );
    ( "platform.checkpoint",
      [
        Alcotest.test_case "records platform" `Quick
          test_checkpoint_records_platform;
        Alcotest.test_case "restart rejects mismatch" `Quick
          test_restart_rejects_platform_mismatch;
        Alcotest.test_case "restart accepts match" `Quick
          test_restart_accepts_matching_platform;
      ] );
  ]
