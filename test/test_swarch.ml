(* Unit and property tests for the SW26010 architecture simulator. *)

open Swarch

(* tolerance class: physical-drift (Swverify.Tol.drift) — cost-model
   arithmetic accumulates rounding; nothing here needs bit-identity *)
let feq ?(eps = 1e-9) a b = Swverify.Tol.close (Swverify.Tol.drift eps) a b

let check_float ?(eps = 1e-9) msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift eps) a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_default_valid () = Config.validate Config.default

let test_config_peak_bw () =
  check_float "peak is last table point" 30.48e9 (Config.peak_dma_bw Config.default)

let test_config_rejects_bad () =
  let bad = { Config.default with Config.cpe_count = 0 } in
  Alcotest.check_raises "zero cpes" (Invalid_argument "Platform: cpe_count must be positive")
    (fun () -> Config.validate bad)

let test_config_rejects_unsorted () =
  let bad = { Config.default with Config.dma_points = [| (128, 1e9); (8, 2e9) |] } in
  Alcotest.check_raises "unsorted" (Invalid_argument "Platform: dma_points must be size-sorted")
    (fun () -> Config.validate bad)

(* ------------------------------------------------------------------ *)
(* Dma *)

let test_dma_table2_points () =
  (* The model must pass exactly through the measured Table 2 points. *)
  List.iter
    (fun (size, bw) -> check_float (Printf.sprintf "bw at %dB" size) bw (Dma.bandwidth Config.default size))
    [ (8, 0.99e9); (128, 15.77e9); (256, 28.88e9); (512, 28.98e9); (2048, 30.48e9) ]

let test_dma_monotone_regions () =
  (* Bandwidth never decreases with size on the Table 2 curve. *)
  let prev = ref 0.0 in
  for s = 1 to 4096 do
    let bw = Dma.bandwidth Config.default s in
    Alcotest.(check bool) "monotone" true (bw >= !prev -. 1.0);
    prev := bw
  done

let test_dma_plateau () =
  check_float "beyond last point = plateau" 30.48e9 (Dma.bandwidth Config.default 65536)

let test_dma_small_latency_bound () =
  (* A 4-byte transfer must be slower than half the 8-byte bandwidth. *)
  let bw4 = Dma.bandwidth Config.default 4 in
  check_float "4B is half of 8B" (0.99e9 /. 2.0) bw4

let test_dma_charges_cost () =
  let c = Cost.create () in
  Dma.get Config.default c ~bytes:256;
  Dma.put Config.default c ~bytes:256;
  Alcotest.(check int) "two transactions" 2 (Cost.transactions c);
  check_float "bytes" 512.0 c.Cost.dma_bytes;
  check_float "time" (2.0 *. 256.0 /. 28.88e9) c.Cost.dma_time_s

let test_dma_zero_bytes_free () =
  let c = Cost.create () in
  Dma.get Config.default c ~bytes:0;
  Alcotest.(check int) "no transaction" 0 (Cost.transactions c)

let test_dma_unaligned_penalty () =
  let ca = Cost.create () and cu = Cost.create () in
  Dma.get Config.default ca ~bytes:96;
  Dma.get ~aligned:false Config.default cu ~bytes:96;
  Alcotest.(check bool) "unaligned slower" true (cu.Cost.dma_time_s > ca.Cost.dma_time_s);
  check_float "same bytes" ca.Cost.dma_bytes cu.Cost.dma_bytes

let test_cg_overlapped_bound () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 0).Cpe.cost 1.45e9;
  Dma.get Config.default (Core_group.cpe g 1).Cpe.cost ~bytes:2048;
  let serial = Core_group.elapsed g in
  let overlapped = Core_group.elapsed_overlapped g in
  Alcotest.(check bool) "overlap never slower" true (overlapped <= serial);
  (* compute (1 s) dominates the one small transfer *)
  check_float "overlap = max phase" 1.0 overlapped

let prop_dma_bigger_never_slower =
  QCheck.Test.make ~name:"dma: time grows with size" ~count:200
    QCheck.(pair (int_range 1 4000) (int_range 1 4000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Dma.transfer_time Config.default lo <= Dma.transfer_time Config.default hi +. 1e-15)

let prop_dma_aggregation_wins =
  (* Moving N bytes as one transfer is never slower than as k chunks. *)
  QCheck.Test.make ~name:"dma: one big transfer beats many small" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 8 512))
    (fun (k, chunk) ->
      let total = k * chunk in
      Dma.transfer_time Config.default total
      <= (float_of_int k *. Dma.transfer_time Config.default chunk) +. 1e-15)

(* ------------------------------------------------------------------ *)
(* Ldm *)

let test_ldm_alloc_free () =
  let l = Ldm.create ~capacity:1024 in
  Ldm.alloc l 512;
  Alcotest.(check int) "used" 512 (Ldm.used l);
  Alcotest.(check int) "available" 512 (Ldm.available l);
  Ldm.free l 512;
  Alcotest.(check int) "freed" 0 (Ldm.used l);
  Alcotest.(check int) "high water" 512 (Ldm.high_water l)

let test_ldm_overflow () =
  let l = Ldm.create ~capacity:100 in
  Ldm.alloc l 60;
  (match Ldm.alloc l 60 with
  | () -> Alcotest.fail "expected Out_of_ldm"
  | exception Ldm.Out_of_ldm { requested; available } ->
      Alcotest.(check int) "requested" 60 requested;
      Alcotest.(check int) "available" 40 available)

let test_ldm_with_alloc_releases_on_raise () =
  let l = Ldm.create ~capacity:100 in
  (try Ldm.with_alloc l 80 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "released" 0 (Ldm.used l)

let test_ldm_capacity_is_64k () =
  let cpe = Cpe.create Config.default 0 in
  Alcotest.(check int) "64 KB" 65536 (Ldm.available cpe.Cpe.ldm)

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_add () =
  let a = Cost.create () and b = Cost.create () in
  Cost.flops a 10.0;
  Cost.simd b 5.0;
  Cost.gld b 3;
  Cost.add ~into:a b;
  check_float "flops kept" 10.0 a.Cost.scalar_flops;
  check_float "simd added" 5.0 a.Cost.simd_ops;
  Alcotest.(check int) "gld added" 3 (int_of_float a.Cost.gld_count)

let test_cost_cpe_time () =
  let c = Cost.create () in
  Cost.flops c 1.45e9;
  (* 1.45e9 flops at 1 flop/cycle at 1.45 GHz = 1 second *)
  check_float "one second" 1.0 (Cost.cpe_compute_time Config.default c)

let test_cost_gld_latency () =
  let c = Cost.create () in
  Cost.gld c 1000;
  check_float "gld time" (1000.0 *. Config.default.Config.gld_latency_s)
    (Cost.cpe_compute_time Config.default c)

let test_cost_mpe_time () =
  let c = Cost.create () in
  Cost.mpe_flops c (Config.default.Config.mpe_flops_per_cycle *. 1.45e9);
  check_float "mpe 1s" 1.0 (Cost.mpe_time Config.default c)

let test_cost_reset () =
  let c = Cost.create () in
  Cost.flops c 5.0;
  Cost.gld c 2;
  Cost.reset c;
  check_float "flops zero" 0.0 c.Cost.scalar_flops;
  Alcotest.(check int) "gld zero" 0 (int_of_float c.Cost.gld_count)

(* ------------------------------------------------------------------ *)
(* Simd *)

(* a fresh vector holding [lanes], each rounded to single precision *)
let vec_of lanes =
  let v = Simd.zero (Array.length lanes) in
  Simd.init_into v (Array.get lanes);
  v

let lanes v = Array.init (Simd.width v) (Simd.lane v)

let flist = Alcotest.(list (float 0.0))

(* The paper's [simd_vshuff] on one 4-lane group, as a test-local
   reference: lanes [i], [j] of [x] followed by lanes [k], [l] of [y];
   one vector instruction. *)
let vshuff_ref c (x : float array) (y : float array) (i, j, k, l) =
  Cost.simd c 1.0;
  [| x.(i); x.(j); y.(k); y.(l) |]

(* Figure 7: three 4-lane vectors x1..x4, y1..y4, z1..z4 become the
   per-particle triples x1 y1 z1 ... x4 y4 z4 in six shuffles. *)
let transpose3x4_ref c x y z =
  (* first shuffle round: interleave pairs *)
  let s1 = vshuff_ref c x y (0, 2, 0, 2) in (* X1 X3 Y1 Y3 *)
  let s2 = vshuff_ref c x z (1, 3, 0, 2) in (* X2 X4 Z1 Z3 *)
  let s3 = vshuff_ref c y z (1, 3, 1, 3) in (* Y2 Y4 Z2 Z4 *)
  (* second shuffle round: gather per-particle triples *)
  let p1 = vshuff_ref c s1 s2 (0, 2, 2, 0) in (* X1 Y1 Z1 X2 *)
  let p2 = vshuff_ref c s3 s1 (0, 2, 1, 3) in (* Y2 Z2 X3 Y3 *)
  let p3 = vshuff_ref c s2 s3 (3, 1, 1, 3) in (* Z3 X4 Y4 Z4 *)
  Array.concat [ p1; p2; p3 ]

let transpose_into c x y z =
  let dst = Array.make 12 nan in
  Simd.transpose3x4_into c x y z dst;
  dst

let test_simd_make_lane () =
  let v = vec_of [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.check flist "lanes" [ 1.0; 2.0; 3.0; 4.0 ] (Array.to_list (lanes v))

let test_simd_add () =
  let c = Cost.create () in
  let v = Simd.zero 4 and ten = Simd.zero 4 in
  Simd.splat_into ten 10.0;
  Simd.add_into c v (vec_of [| 1.0; 2.0; 3.0; 4.0 |]) ten;
  Alcotest.check flist "sum" [ 11.0; 12.0; 13.0; 14.0 ] (Array.to_list (lanes v));
  check_float "one instruction" 1.0 c.Cost.simd_ops

let test_simd_fma () =
  let c = Cost.create () in
  let v = Simd.zero 4 in
  Simd.fma_into c v (vec_of [| 2.0; 2.0; 2.0; 2.0 |])
    (vec_of [| 3.0; 3.0; 3.0; 3.0 |]) (vec_of [| 1.0; 1.0; 1.0; 1.0 |]);
  check_float "fma lane" 7.0 (Simd.lane v 0);
  check_float "one instruction" 1.0 c.Cost.simd_ops

let test_simd_hsum () =
  let c = Cost.create () in
  check_float "hsum" 10.0 (Simd.hsum c (vec_of [| 1.0; 2.0; 3.0; 4.0 |]))

let test_simd_single_precision_rounding () =
  (* 0.1 is not representable in binary32; lanes must hold the rounded value. *)
  let v = Simd.zero 4 in
  Simd.splat_into v 0.1;
  Alcotest.(check bool) "rounded" true (Simd.lane v 0 <> 0.1);
  check_float ~eps:1e-7 "close" 0.1 (Simd.lane v 0)

(* the pick semantics the Fig 7 reference is built from *)
let test_simd_vshuff () =
  let c = Cost.create () in
  let v = vshuff_ref c [| 1.0; 2.0; 3.0; 4.0 |] [| 5.0; 6.0; 7.0; 8.0 |] (0, 2, 1, 3) in
  Alcotest.check flist "shuffle" [ 1.0; 3.0; 6.0; 8.0 ] (Array.to_list v)

let test_simd_transpose_costs_six () =
  (* Figure 7: the transpose is exactly six vshuff instructions. *)
  let c = Cost.create () and cr = Cost.create () in
  let xs = [| 1.0; 2.0; 3.0; 4.0 |]
  and ys = [| 5.0; 6.0; 7.0; 8.0 |]
  and zs = [| 9.0; 10.0; 11.0; 12.0 |] in
  let d = transpose_into c (vec_of xs) (vec_of ys) (vec_of zs) in
  check_float "six shuffles" 6.0 c.Cost.simd_ops;
  ignore (transpose3x4_ref cr xs ys zs);
  check_float "reference is six shuffles" 6.0 cr.Cost.simd_ops;
  let p i = (d.(3 * i), d.((3 * i) + 1), d.((3 * i) + 2)) in
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0))) "p1" (1.0, 5.0, 9.0) (p 0);
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0))) "p2" (2.0, 6.0, 10.0) (p 1);
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0))) "p3" (3.0, 7.0, 11.0) (p 2);
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0))) "p4" (4.0, 8.0, 12.0) (p 3)

let lanes4 = QCheck.(array_of_size (QCheck.Gen.return 4) (float_range (-1e3) 1e3))

let prop_simd_transpose_roundtrip =
  QCheck.Test.make ~name:"simd: transpose recovers per-particle triples" ~count:200
    QCheck.(triple lanes4 lanes4 lanes4)
    (fun (xs, ys, zs) ->
      let c = Cost.create () in
      let r32 = Simd.round32 in
      let d = transpose_into c (vec_of xs) (vec_of ys) (vec_of zs) in
      Array.for_all
        (fun i ->
          d.(3 * i) = r32 xs.(i)
          && d.((3 * i) + 1) = r32 ys.(i)
          && d.((3 * i) + 2) = r32 zs.(i))
        [| 0; 1; 2; 3 |])

let prop_simd_transpose_matches_fig7 =
  QCheck.Test.make ~name:"simd: transpose3x4_into = Fig 7 six-vshuff reference"
    ~count:200
    QCheck.(triple lanes4 lanes4 lanes4)
    (fun (xs, ys, zs) ->
      let c = Cost.create () and cr = Cost.create () in
      let x = vec_of xs and y = vec_of ys and z = vec_of zs in
      transpose_into c x y z = transpose3x4_ref cr (lanes x) (lanes y) (lanes z)
      && c.Cost.simd_ops = cr.Cost.simd_ops)

let test_simd_cmp_select () =
  let c = Cost.create () in
  let three = Simd.zero 4 and one = Simd.zero 4 and m = Simd.zero 4 in
  Simd.splat_into three 3.0;
  Simd.splat_into one 1.0;
  Simd.cmp_lt_into c m (vec_of [| 1.0; 5.0; 2.0; 9.0 |]) three;
  let v = Simd.zero 4 in
  Simd.select_into c v m one (Simd.zero 4);
  Alcotest.check flist "mask select" [ 1.0; 0.0; 1.0; 0.0 ] (Array.to_list (lanes v))

let prop_simd_arith_matches_scalar =
  QCheck.Test.make ~name:"simd: lanes match rounded scalar arithmetic" ~count:300
    QCheck.(pair (float_range (-1e6) 1e6) (float_range (-1e6) 1e6))
    (fun (a, b) ->
      let c = Cost.create () in
      let va = Simd.zero 4 and vb = Simd.zero 4 and d = Simd.zero 4 in
      Simd.splat_into va a;
      Simd.splat_into vb b;
      let r32 = Simd.round32 in
      let lane op i = op c d va vb; Simd.lane d i in
      lane Simd.add_into 0 = r32 (r32 a +. r32 b)
      && lane Simd.mul_into 2 = r32 (r32 a *. r32 b)
      && lane Simd.sub_into 3 = r32 (r32 a -. r32 b))

(* ------------------------------------------------------------------ *)
(* Core_group / Chip *)

let test_cg_max_compute () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 0).Cpe.cost 1.45e9;
  Cost.flops (Core_group.cpe g 1).Cpe.cost 2.9e9;
  check_float "critical path is slowest CPE" 2.0 (Core_group.max_compute_time g)

let test_cg_dma_sums () =
  let g = Core_group.create Config.default in
  Dma.get Config.default (Core_group.cpe g 0).Cpe.cost ~bytes:2048;
  Dma.get Config.default (Core_group.cpe g 1).Cpe.cost ~bytes:2048;
  check_float "bus time sums" (2.0 *. 2048.0 /. 30.48e9) (Core_group.dma_time g)

let test_cg_elapsed_combines () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 0).Cpe.cost 1.45e9;
  Dma.get Config.default (Core_group.cpe g 1).Cpe.cost ~bytes:2048;
  Mpe.charge_flops g.Core_group.mpe
    (Config.default.Config.mpe_flops_per_cycle *. 1.45e9);
  check_float "elapsed" (1.0 +. (2048.0 /. 30.48e9) +. 1.0) (Core_group.elapsed g)

let test_cg_reset () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 5).Cpe.cost 100.0;
  Core_group.reset g;
  check_float "cleared" 0.0 (Core_group.elapsed g)

let test_cg_imbalance () =
  let g = Core_group.create Config.default in
  Core_group.iter_cpes g (fun c -> Cost.flops c.Cpe.cost 100.0);
  check_float "balanced" 1.0 (Core_group.load_imbalance g)

let test_cpe_mesh_position () =
  let c = Cpe.create Config.default 19 in
  Alcotest.(check int) "row" 2 (Cpe.row c);
  Alcotest.(check int) "col" 3 (Cpe.col c)

let test_chip_peak_flops () =
  (* 4 CG x 65 elements x 4 lanes x 2 x 1.45 GHz = 3.016 Tflops *)
  check_float ~eps:1e-3 "3.0 Tflops" 3.016e12 (Chip.peak_flops Config.default)

let test_chip_elapsed_is_max_group () =
  let chip = Chip.create Config.default in
  Cost.flops (Core_group.cpe (Chip.group chip 2) 0).Cpe.cost 1.45e9;
  check_float "max group" 1.0 (Chip.elapsed chip)

(* ------------------------------------------------------------------ *)
(* Platforms *)

let test_platform_ttf_knl () =
  let r = Platforms.ttf_ratio Platforms.sw26010 Platforms.knl in
  Alcotest.(check bool) "~150x KNL" true (r > 140.0 && r < 160.0)

let test_platform_ttf_p100 () =
  let r = Platforms.ttf_ratio Platforms.sw26010 Platforms.p100 in
  Alcotest.(check bool) "~24x P100" true (r > 22.0 && r < 27.0)

let test_platform_ttf_self () =
  check_float "self ratio is 1" 1.0 (Platforms.ttf_ratio Platforms.knl Platforms.knl)

let test_platform_fair_counts () =
  Alcotest.(check int) "KNL fair count" 152 (Platforms.fair_chip_count Platforms.knl);
  Alcotest.(check int) "P100 fair count" 24 (Platforms.fair_chip_count Platforms.p100)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_dma_bigger_never_slower; prop_dma_aggregation_wins;
    prop_simd_transpose_roundtrip; prop_simd_transpose_matches_fig7;
    prop_simd_arith_matches_scalar ]

let suites =
  [
    ( "swarch.config",
      [
        Alcotest.test_case "default validates" `Quick test_config_default_valid;
        Alcotest.test_case "peak bandwidth" `Quick test_config_peak_bw;
        Alcotest.test_case "rejects bad cpe count" `Quick test_config_rejects_bad;
        Alcotest.test_case "rejects unsorted dma points" `Quick test_config_rejects_unsorted;
      ] );
    ( "swarch.dma",
      [
        Alcotest.test_case "table 2 points exact" `Quick test_dma_table2_points;
        Alcotest.test_case "monotone in size" `Quick test_dma_monotone_regions;
        Alcotest.test_case "plateau beyond table" `Quick test_dma_plateau;
        Alcotest.test_case "latency bound below 8B" `Quick test_dma_small_latency_bound;
        Alcotest.test_case "charges cost" `Quick test_dma_charges_cost;
        Alcotest.test_case "zero bytes free" `Quick test_dma_zero_bytes_free;
        Alcotest.test_case "unaligned penalty" `Quick test_dma_unaligned_penalty;
      ] );
    ( "swarch.ldm",
      [
        Alcotest.test_case "alloc/free bookkeeping" `Quick test_ldm_alloc_free;
        Alcotest.test_case "overflow raises" `Quick test_ldm_overflow;
        Alcotest.test_case "with_alloc releases on raise" `Quick test_ldm_with_alloc_releases_on_raise;
        Alcotest.test_case "CPE has 64 KB" `Quick test_ldm_capacity_is_64k;
      ] );
    ( "swarch.cost",
      [
        Alcotest.test_case "add accumulates" `Quick test_cost_add;
        Alcotest.test_case "cpe compute time" `Quick test_cost_cpe_time;
        Alcotest.test_case "gld latency dominates" `Quick test_cost_gld_latency;
        Alcotest.test_case "mpe time" `Quick test_cost_mpe_time;
        Alcotest.test_case "reset zeroes" `Quick test_cost_reset;
      ] );
    ( "swarch.simd",
      [
        Alcotest.test_case "make/lane" `Quick test_simd_make_lane;
        Alcotest.test_case "add" `Quick test_simd_add;
        Alcotest.test_case "fma" `Quick test_simd_fma;
        Alcotest.test_case "hsum" `Quick test_simd_hsum;
        Alcotest.test_case "single-precision rounding" `Quick test_simd_single_precision_rounding;
        Alcotest.test_case "vshuff semantics" `Quick test_simd_vshuff;
        Alcotest.test_case "Fig 7 transpose = 6 shuffles" `Quick test_simd_transpose_costs_six;
        Alcotest.test_case "cmp/select" `Quick test_simd_cmp_select;
      ] );
    ( "swarch.core_group",
      [
        Alcotest.test_case "compute is max over CPEs" `Quick test_cg_max_compute;
        Alcotest.test_case "dma bus time sums" `Quick test_cg_dma_sums;
        Alcotest.test_case "elapsed combines phases" `Quick test_cg_elapsed_combines;
        Alcotest.test_case "reset" `Quick test_cg_reset;
        Alcotest.test_case "imbalance metric" `Quick test_cg_imbalance;
        Alcotest.test_case "overlapped elapsed bound" `Quick test_cg_overlapped_bound;
        Alcotest.test_case "cpe mesh position" `Quick test_cpe_mesh_position;
        Alcotest.test_case "chip peak ~3 Tflops" `Quick test_chip_peak_flops;
        Alcotest.test_case "chip elapsed = max group" `Quick test_chip_elapsed_is_max_group;
      ] );
    ( "swarch.platforms",
      [
        Alcotest.test_case "TTF vs KNL ~150" `Quick test_platform_ttf_knl;
        Alcotest.test_case "TTF vs P100 ~24" `Quick test_platform_ttf_p100;
        Alcotest.test_case "TTF self = 1" `Quick test_platform_ttf_self;
        Alcotest.test_case "fair chip counts" `Quick test_platform_fair_counts;
      ] );
    ("swarch.properties", qsuite);
  ]
