(* Experiment runner: regenerates the paper's tables and figures.

   Usage:
     experiments                 run everything (full sizes)
     experiments --quick         run everything at reduced sizes
     experiments fig8 table2     run selected experiments
     experiments --list          list experiment ids
     experiments --trace FILE    also record a swtrace timeline *)

let run_one ~quick (e : Swbench.Registry.experiment) =
  Fmt.pr "@.=== %s ===@." e.title;
  let t0 = Unix.gettimeofday () in
  Swbench.Registry.run e ~quick Fmt.stdout;
  Fmt.pr "[%s finished in %.1f s wall]@." e.Swbench.Registry.id
    (Unix.gettimeofday () -. t0)

let prog = "experiments"

let main list_only quick () cfg trace ids =
  if list_only then begin
    List.iter print_endline (Swbench.Registry.ids ());
    0
  end
  else begin
    Fmt.pr "platform: %a (%d domain(s))@." Swarch.Platform.pp cfg
      (Swpar.Domains.get ());
    let selected =
      match ids with
      | [] -> Swbench.Registry.all
      | ids ->
          List.map
            (fun id ->
              match Swbench.Registry.find id with
              | Some e -> e
              | None ->
                  Swbench.Cli.fail ~prog
                    (Printf.sprintf "unknown experiment %S; try --list" id))
            ids
    in
    List.iter (run_one ~quick) selected;
    Swbench.Cli.finish_trace ~prog trace;
    0
  end

open Cmdliner

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Run shrunken workloads (8x smaller); shapes are preserved.")

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids to run (default: all).")

let cmd =
  let doc = "regenerate the tables and figures of the SW_GROMACS paper" in
  Cmd.v
    (Cmd.info prog ~doc)
    Term.(
      const main $ list_flag $ quick_flag
      $ Swbench.Cli.domains ~prog
          ~doc:
            "Run the simulator over $(docv) OCaml domains (bit-identical \
             results for every $(docv); see docs/PARALLEL.md)."
          ()
      $ Swbench.Cli.platform ~prog
          ~doc:
            "Machine description the experiments run against: a built-in \
             platform name or a key=value platform file."
          ()
      $ Swbench.Cli.trace
          ~file_doc:"Record the runs and export a Chrome trace_event JSON file."
          ~summary_doc:"Record the runs and print the swtrace summary tables."
          ()
      $ ids_arg)

let () = exit (Cmd.eval' cmd)
