(* Self-tests of the host-cost benchmark: its order statistics, its
   metric catalogue against BENCHMARK.json, a live failure path and the
   memo bypass of table1-step.  Workloads run at toy sizes. *)

open Perfbench

let close = Alcotest.float 1e-12

let test_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.check close "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.check close "p50" 2.5 (Stats.median xs);
  Alcotest.check close "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.check close "one sample" 7.0 (Stats.median [| 7.0 |]);
  Alcotest.check_raises "p > 100" (Invalid_argument "Stats.percentile: p outside [0, 100]")
    (fun () -> ignore (Stats.percentile xs 101.0))

(* reference values from Python: statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let q xs = Array.to_list (Stats.quartiles xs) in
  let floats = Alcotest.(list close) in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ]
    (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "two samples" [ 0.75; 1.5; 2.25 ] (q [| 2.0; 1.0 |]);
  Alcotest.check floats "five samples" [ 1.5; 3.0; 4.5 ]
    (q [| 5.0; 4.0; 3.0; 2.0; 1.0 |])

let test_tail_percentile () =
  let tail = Alcotest.(option (float 0.0)) in
  List.iter
    (fun (n, p) ->
      Alcotest.check tail (Printf.sprintf "n=%d" n) p (Stats.tail_percentile n))
    [
      (19, None);
      (20, Some 50.0);
      (40, Some 75.0);
      (100, Some 90.0);
      (200, Some 95.0);
      (1000, Some 99.0);
      (10000, Some 99.9);
    ]

(* toy sizes: the same code paths in well under a second each *)
let t1_size = { Table1.total_atoms = 96; n_cg = 2 }
let sweep_particles = 120
let md_size = { Md.molecules = 16; round_steps = 20 }
let unpinned _ = None

(* (name, unit) of each metric in one section of BENCHMARK.json, which
   holds one metric object per line *)
let catalogue section =
  let index_of line sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length line then None
      else if String.sub line i n = sub then Some (i + n)
      else go (i + 1)
    in
    go 0
  in
  let field line key =
    Option.map
      (fun i -> String.sub line i (String.index_from line i '"' - i))
      (index_of line (Printf.sprintf "\"%s\": \"" key))
  in
  let current = ref "" in
  In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         List.iter
           (fun s ->
             if index_of line (Printf.sprintf "\"%s\": [" s) <> None then
               current := s)
           [ "workloads"; "end_to_end"; "per_layer" ];
         match (field line "name", field line "unit") with
         | Some n, Some u when !current = section -> Some (n, u)
         | _ -> None)

let names_units metrics = List.map (fun (n, _, u) -> (n, u)) metrics
let pairs = Alcotest.(list (pair string string))

let test_end_to_end_catalogue () =
  let r = Report.create Table1.name in
  Table1.run ~size:t1_size ~pins:unpinned ~seconds:0.0 r;
  let named =
    [ "ops_per_s"; "op_ms_p50"; "words_per_op"; "heap_peak_mb"; "setup_s" ]
  in
  let got = names_units (Report.end_to_end r) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " reported") true (List.mem_assoc n got))
    named;
  Alcotest.check pairs "end_to_end of BENCHMARK.json" (catalogue "end_to_end") got;
  List.iter
    (fun (n, v, _) ->
      Alcotest.(check bool) (n ^ " positive and finite") true
        (Float.is_finite v && v > 0.0))
    (Report.end_to_end r)

let test_per_layer_catalogue () =
  let profile f =
    let r = Report.create "profile" in
    f r;
    Alcotest.(check int) "no failed op" 0 r.Report.failed;
    r.Report.layers
  in
  let layers =
    profile (Table1.profile ~size:t1_size ~pins:unpinned ~seconds:0.0)
    @ profile (Sweep.profile ~particles:sweep_particles ~pins:unpinned ~seed:3 ~seconds:0.0)
    @ profile (Md.profile ~size:md_size ~pins:unpinned ~seed:3 ~seconds:0.0)
  in
  Alcotest.check pairs "per_layer of BENCHMARK.json" (catalogue "per_layer")
    (names_units layers);
  List.iter
    (fun w ->
      Alcotest.(check bool) ("coverage of " ^ w) true
        (List.exists (fun (n, _, _) -> n = "coverage." ^ w) layers))
    [ Table1.name; Sweep.name; Md.name ]

(* A digest that cannot match must fail every op it covers. *)
let test_wrong_digest_fails () =
  let wrong _ = Some "00000000000000000000000000000000" in
  let r = Report.create Table1.name in
  Table1.run ~size:t1_size ~pins:wrong ~seconds:0.0 r;
  Alcotest.(check int) "table1-step: every op failed" r.Report.ops r.Report.failed;
  Alcotest.(check bool) "fail_ratio above 0" true (Report.fail_ratio r > 0.0);
  let r = Report.create Md.name in
  Md.run ~size:md_size ~pins:wrong ~seed:3 ~seconds:0.0 r;
  Alcotest.(check int) "md-dynamics: every step of the round failed"
    md_size.Md.round_steps r.Report.failed;
  Alcotest.(check bool) "pass_ratio below 1" true
    (List.assoc "pass_ratio"
       (List.map (fun (n, v, _) -> (n, v)) (Report.end_to_end r))
    < 1.0)

(* Every op must be priced by the engine, never served from the
   Swbench memo or store: each Engine.measure emits one "rest" phase
   span, so the spans count the calls (the set-up warm-ups included). *)
let test_measure_not_memoised () =
  Swtrace.Trace.enable ();
  let r = Report.create Table1.name in
  Fun.protect ~finally:Swtrace.Trace.disable (fun () ->
      Table1.run ~size:t1_size ~pins:unpinned ~seconds:0.0 r);
  let calls =
    List.length
      (List.filter
         (fun (e : Swtrace.Event.t) -> e.Swtrace.Event.cat = "phase" && e.Swtrace.Event.name = "rest")
         (Swtrace.Trace.events ()))
  in
  Alcotest.(check int) "no dropped events" 0 (Swtrace.Trace.dropped ());
  Alcotest.(check int) "Engine.measure calls = ops + set-ups"
    (r.Report.ops + List.length r.Report.setups)
    calls;
  Alcotest.(check int) "no failed op" 0 r.Report.failed

(* The calibration loop must leave the program's heap alone: nothing it
   allocates survives to the major heap. *)
let test_calibration_promotes_nothing () =
  Report.calibration ();
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  let p0 = promoted () in
  Report.calibration ();
  Alcotest.(check bool) "under 1,000 words promoted" true (promoted () -. p0 < 1000.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "end-to-end catalogue" `Quick test_end_to_end_catalogue;
          Alcotest.test_case "per-layer catalogue" `Quick test_per_layer_catalogue;
        ] );
      ( "checks",
        [
          Alcotest.test_case "wrong digest fails" `Quick test_wrong_digest_fails;
          Alcotest.test_case "measure not memoised" `Quick test_measure_not_memoised;
          Alcotest.test_case "calibration promotes nothing" `Quick
            test_calibration_promotes_nothing;
        ] );
    ]
