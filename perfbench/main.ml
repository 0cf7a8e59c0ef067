(* Host-cost benchmark of the simulator.

     main --workload NAME --seed N --seconds S --trace 0|1

   Prints a stamp, a human-readable metric table and, as the last line
   of standard output, one JSON object:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   --trace 0 reports the end-to-end metrics of workload NAME; --trace 1
   profiles every workload with host-cost spans and reports the
   per-layer metrics (they are defined across all three workloads), so
   with --trace 1 the --workload option is optional, any NAME given is
   ignored and the stamp reads workload=all.  Exits 2 on a bad command
   line. *)

open Perfbench

let workloads = [ Table1.name; Sweep.name; Md.name ]

let usage () =
  prerr_endline
    "usage: main --workload table1-step|kernel-sweep|md-dynamics --seed N \
     --seconds S --trace 0\n\
    \       main [--workload NAME] --seed N --seconds S --trace 1";
  exit 2

let args () =
  let workload = ref "" and seed = ref Pins.default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when Float.is_finite s && s > 0.0 -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !trace = 1 then ("all", !seed, !seconds, true)
  else if List.mem !workload workloads then (!workload, !seed, !seconds, false)
  else usage ()

(* the commit of the checkout, when it is a git work tree *)
let commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some c -> c
      | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

(* a metric that is not a finite number is a defect of the benchmark:
   fail without printing a result *)
let json_number name x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else begin
    Printf.eprintf "main: metric %s is %g\n" name x;
    exit 1
  end

let () =
  let workload, seed, seconds, trace = args () in
  let domains = Swpar.Domains.get () in
  if domains <> 1 then begin
    Printf.eprintf "main: expected 1 domain, have %d\n" domains;
    exit 2
  end;
  Printf.printf
    "stamp commit=%s platform=%s domains=%d nproc=%d ocaml=%s seed=%d \
     workload=%s trace=%d seconds=%g\n%!"
    (commit ()) Swarch.Config.default.Swarch.Config.name domains
    (Domain.recommended_domain_count ()) Sys.ocaml_version seed workload
    (Bool.to_int trace) seconds;
  let pins = Pins.find in
  let run w seconds =
    let r = Report.create w in
    (match (w, trace) with
    | "table1-step", false -> Table1.run ~pins ~seconds r
    | "table1-step", true -> Table1.profile ~pins ~seconds r
    | "kernel-sweep", false -> Sweep.run ~pins ~seed ~seconds r
    | "kernel-sweep", true -> Sweep.profile ~pins ~seed ~seconds r
    | _, false -> Md.run ~pins ~seed ~seconds r
    | _, true -> Md.profile ~pins ~seed ~seconds r);
    Printf.printf "%s: %d ops, %d failed, digest %s\n%!" w r.Report.ops
      r.Report.failed (Report.digest r);
    r
  in
  let reports =
    if trace then List.map (fun w -> run w (seconds /. 3.0)) workloads
    else [ run workload seconds ]
  in
  let metrics =
    if trace then List.concat_map (fun r -> r.Report.layers) reports
    else begin
      let r = List.hd reports in
      let samples = Report.sample_ms r in
      let m = Stats.median samples in
      let q =
        if Array.length samples >= 2 then Stats.quartiles samples
        else [| m; m; m |]
      in
      Printf.printf "op_ms over all samples: n=%d p25=%.3f p50=%.3f p75=%.3f tail=%s\n"
        (Array.length samples) q.(0) m q.(2)
        (match Stats.tail_percentile (Array.length samples) with
        | Some p -> Printf.sprintf "p%g=%.3f" p (Stats.percentile samples p)
        | None -> "none (fewer than 10 samples beyond p50)");
      Printf.printf "fail_ratio %.17g 1\n" (Report.fail_ratio r);
      Printf.printf
        "host speed: calibration loop median %.3f ms over %d loops \
         (reference %g ms); each time below is scaled by the reference \
         over the mean of the loops run just before and just after it\n"
        (Report.cal_ref_ms /. Report.scale r)
        (List.length r.Report.cal) Report.cal_ref_ms;
      List.iter
        (fun (n, v, u) -> Printf.printf "host-time %s %.17g %s\n" n v u)
        (Report.host_times r);
      Report.end_to_end r
    end
  in
  List.iter (fun (n, v, u) -> Printf.printf "%s %.17g %s\n" n v u) metrics;
  let attempted = List.fold_left (fun a r -> a + r.Report.ops) 0 reports in
  let failed = List.fold_left (fun a r -> a + r.Report.failed) 0 reports in
  let json =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
             (json_number n v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed json
