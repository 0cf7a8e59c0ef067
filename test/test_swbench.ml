(* Tests for the benchmark harness: registry completeness, rendering,
   and quick-mode data sanity for the experiment modules. *)

open Swbench

(* substring test without extra libraries *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_covers_paper () =
  (* every table and figure of the evaluation section must be present *)
  List.iter
    (fun id ->
      match Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "table1"; "table2"; "table3"; "table4"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "fig13" ]

let test_registry_ids_unique () =
  let ids = Registry.ids () in
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_unknown () =
  Alcotest.(check bool) "unknown id" true (Registry.find "fig99" = None)

(* ------------------------------------------------------------------ *)
(* Table_render *)

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_table_renders_cells () =
  let out =
    render (fun ppf ->
        Table_render.table ppf ~headers:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ])
  in
  Alcotest.(check bool) "has cell" true
    (String.length out > 0 && contains ~needle:"333" out)

let test_table_rejects_ragged () =
  Alcotest.(check bool) "ragged rejected" true
    (try
       render (fun ppf ->
           Table_render.table ppf ~headers:[ "a"; "b" ] [ [ "only one" ] ])
       |> ignore;
       false
     with Invalid_argument _ -> true)

let test_bar_chart_scales () =
  let out =
    render (fun ppf ->
        Table_render.bar_chart ppf ~title:"t" [ ("x", 1.0); ("y", 2.0) ])
  in
  (* the larger bar must be longer *)
  let count_hashes line =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line
  in
  let lines = String.split_on_char '\n' out in
  let bar name = List.find_opt (fun l -> contains ~needle:name l) lines in
  match (bar "x", bar "y") with
  | Some lx, Some ly ->
      Alcotest.(check bool) "y longer than x" true (count_hashes ly > count_hashes lx)
  | _ -> Alcotest.fail "bars missing"

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_cases () =
  Alcotest.(check int) "case1" 48000 Workload.case1.Workload.particles;
  Alcotest.(check int) "case1 single CG" 1 Workload.case1.Workload.n_cg;
  Alcotest.(check int) "case2" 3072000 Workload.case2.Workload.particles;
  Alcotest.(check int) "case2 512 CGs" 512 Workload.case2.Workload.n_cg

let test_workload_shrink () =
  let s = Workload.shrink ~quick:true Workload.case1 in
  Alcotest.(check int) "divided by 8" 6000 s.Workload.particles;
  let f = Workload.shrink ~quick:false Workload.case1 in
  Alcotest.(check int) "full untouched" 48000 f.Workload.particles

(* ------------------------------------------------------------------ *)
(* Experiment data (tiny smoke runs) *)

let test_fig9_data_ordering () =
  (* even at tiny sizes the strategy ordering must hold *)
  let bars = Exp_fig9.data ~quick:true () in
  let get v =
    (List.find (fun b -> b.Exp_fig9.variant = v) bars).Exp_fig9.speedup
  in
  Alcotest.(check bool) "MARK beats RMA" true
    (get Swgmx.Variant.Mark > get Swgmx.Variant.Rma);
  Alcotest.(check bool) "RMA beats USTC" true
    (get Swgmx.Variant.Rma > get Swgmx.Variant.Ustc)

let test_fig12_data_shape () =
  let c = Exp_fig12.data ~quick:true () in
  Alcotest.(check int) "8 strong points" 8 (List.length c.Exp_fig12.strong);
  let eff_first = (List.hd c.Exp_fig12.strong).Swcomm.Scaling.efficiency in
  let eff_last =
    (List.nth c.Exp_fig12.strong 7).Swcomm.Scaling.efficiency
  in
  Alcotest.(check (float 1e-9)) "baseline 1" 1.0 eff_first;
  Alcotest.(check bool) "declines" true (eff_last < eff_first);
  List.iter
    (fun (p : Swcomm.Scaling.point) ->
      Alcotest.(check bool) "weak stays high" true (p.Swcomm.Scaling.efficiency > 0.6))
    c.Exp_fig12.weak

let test_fig11_data_shape () =
  let groups = Exp_fig11.data ~quick:true () in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  List.iter
    (fun (g : Exp_fig11.group) ->
      Alcotest.(check (float 0.0)) "MPE baseline" 1.0 g.Exp_fig11.mpe_bar;
      Alcotest.(check bool) "CPE beats MPE" true (g.Exp_fig11.cpe_bar > 1.0);
      Alcotest.(check bool) "device beats MPE" true (g.Exp_fig11.device_bar > 1.0))
    groups;
  (* the paper's key qualitative point: the CPE port crushes KNL but
     is comparable to a P100 *)
  let knl = List.find (fun g -> g.Exp_fig11.device = "KNL") groups in
  Alcotest.(check bool) "CPE >> KNL" true
    (knl.Exp_fig11.cpe_bar > 4.0 *. knl.Exp_fig11.device_bar)

let test_ablation_read_line_sweep () =
  let sweep = Ablations.read_line_sweep ~quick:true () in
  (* longer lines must reduce the miss ratio on the kernel stream *)
  let m1 = match sweep with (1, m, _) :: _ -> m | _ -> Alcotest.fail "no data" in
  let m8 =
    match List.find_opt (fun (l, _, _) -> l = 8) sweep with
    | Some (_, m, _) -> m
    | None -> Alcotest.fail "no 8-line point"
  in
  Alcotest.(check bool) "8-package lines miss less" true (m8 < m1)

let test_ablation_package_sweep () =
  let sweep = Ablations.package_sweep ~quick:true () in
  let t label = List.assoc label sweep in
  Alcotest.(check bool) "aggregation wins" true
    (t "particle package (96 B)" < t "per-field (8 B x 20)");
  Alcotest.(check bool) "line fetch wins more" true
    (t "cache line (768 B / 8)" < t "particle package (96 B)")

let test_ablation_gld_loses () =
  let dma_t, gld_t = Ablations.gld_vs_dma ~quick:true () in
  Alcotest.(check bool) "gld is much slower" true (gld_t > 10.0 *. dma_t)

(* ------------------------------------------------------------------ *)
(* Golden pins of the MD step *)

(* Figure 13 drives the optimized and the reference dynamics through
   the same step phases; a digest of all four series at full precision
   pins both trajectories bit for bit on each platform.  The two digests
   differ because the optimized run follows the active platform. *)
let fig13_digest platform =
  let saved = Common.cfg () in
  Fun.protect
    ~finally:(fun () -> Common.set_platform saved)
    (fun () ->
      Common.set_platform platform;
      let r = Exp_fig13.data ~quick:true () in
      r.Exp_fig13.samples
      |> List.map (fun (s : Exp_fig13.series) ->
             Printf.sprintf "%d %h %h %h %h\n" s.Exp_fig13.step
               s.Exp_fig13.ref_energy s.Exp_fig13.opt_energy
               s.Exp_fig13.ref_temp s.Exp_fig13.opt_temp)
      |> String.concat "" |> Digest.string |> Digest.to_hex)

let test_fig13_pin platform expected () =
  Alcotest.(check string)
    (platform.Swarch.Platform.name ^ " fig13 series digest")
    expected (fig13_digest platform);
  Alcotest.(check string) "active platform restored" "sw26010"
    (Common.cfg ()).Swarch.Platform.name

let suites =
  [
    ( "swbench.registry",
      [
        Alcotest.test_case "covers all tables+figures" `Quick test_registry_covers_paper;
        Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
        Alcotest.test_case "unknown id" `Quick test_registry_unknown;
      ] );
    ( "swbench.render",
      [
        Alcotest.test_case "table renders" `Quick test_table_renders_cells;
        Alcotest.test_case "ragged rejected" `Quick test_table_rejects_ragged;
        Alcotest.test_case "bars scale" `Quick test_bar_chart_scales;
      ] );
    ( "swbench.workload",
      [
        Alcotest.test_case "paper cases" `Quick test_workload_cases;
        Alcotest.test_case "quick shrink" `Quick test_workload_shrink;
      ] );
    ( "swbench.data",
      [
        Alcotest.test_case "fig9 ordering" `Slow test_fig9_data_ordering;
        Alcotest.test_case "fig12 shape" `Slow test_fig12_data_shape;
        Alcotest.test_case "fig11 shape" `Slow test_fig11_data_shape;
        Alcotest.test_case "ablation: line length" `Slow test_ablation_read_line_sweep;
        Alcotest.test_case "ablation: aggregation" `Slow test_ablation_package_sweep;
        Alcotest.test_case "ablation: gld vs dma" `Quick test_ablation_gld_loses;
      ] );
    ( "swbench.goldens",
      [
        Alcotest.test_case "fig13 digest on sw26010" `Slow
          (test_fig13_pin Swarch.Platform.sw26010
             "5178c5d5ffdd6ab69d279c779bb27ab2");
        Alcotest.test_case "fig13 digest on sw26010_pro" `Slow
          (test_fig13_pin Swarch.Platform.sw26010_pro
             "b4e80ee943f9c8b4cb0a9d4e81e16605");
      ] );
  ]
