(** The run configuration every binary shares, read and validated in
    one place.

    [sw_gromacs], [experiments] and [bench] take the same
    [--platform], [--domains], [--trace] and [--trace-summary] flags;
    the Cmdliner terms below are their only definition.  Each term
    validates its value and installs it (the platform through
    {!Common.set_platform}, the domain count through
    {!Swpar.Domains.set}, tracing through {!Swtrace.Trace.enable}); a
    rejected value ends the run through {!fail}.  Terms are evaluated
    left to right, so a command lists [domains] before [platform]
    before [trace]. *)

open Cmdliner

(** [fail ?code ~prog msg] prints [<prog>: <msg>] on stderr and exits
    with [code] (default 2, a rejected input). *)
let fail ?(code = 2) ~prog msg =
  Fmt.epr "%s: %s@." prog msg;
  exit code

let guard ~prog f x = try f x with Invalid_argument msg -> fail ~prog msg

(** [domains ~prog ?doc ()] installs [--domains N] (default 1). *)
let domains ~prog
    ?(doc =
      "Execute the CPE mesh walks and batch jobs over $(docv) OCaml \
       domains (see docs/PARALLEL.md).  Sharding is static and the merge \
       order fixed, so physics, cost charges and traces are bit-identical \
       for every $(docv); 1 reproduces the serial path.") () =
  Term.(
    const (guard ~prog Swpar.Domains.set)
    $ Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc))

let install_platform name =
  let p = Swarch.Platform.resolve name in
  Common.set_platform p;
  p

(** [platform ~prog ?doc ()] resolves [--platform NAME] (a built-in
    name or a platform file), validates it and makes it the active
    machine description; the term's value is that description. *)
let platform ~prog
    ?(doc =
      "Machine description to simulate: a built-in platform name \
       ($(b,sw26010), $(b,sw26010_pro)) or the path of a key=value \
       platform file (see docs/PLATFORMS.md).") () =
  Term.(
    const (guard ~prog install_platform)
    $ Arg.(
        value
        & opt string Swarch.Platform.default.Swarch.Platform.name
        & info [ "platform" ] ~docv:"NAME" ~doc))

type trace = { file : string option; summary : bool }

(** [tracing t] tests whether the run is being recorded. *)
let tracing t = t.file <> None || t.summary

(** [trace ?file_doc ?summary_doc ()] reads [--trace FILE] and
    [--trace-summary]; either one starts recording. *)
let trace
    ?(file_doc = "Record the run and export a Chrome trace_event JSON file.")
    ?(summary_doc =
      "Record the run and print phase/utilization/DMA/roofline tables.") () =
  let make file summary =
    let t = { file; summary } in
    if tracing t then Swtrace.Trace.enable ();
    t
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE" ~doc:file_doc)
    $ Arg.(value & flag & info [ "trace-summary" ] ~doc:summary_doc))

(** [finish_trace ~prog t] stops recording and exports what the run
    recorded: the Chrome JSON to [--trace FILE] (with a note of any
    events the ring buffers dropped) and the summary tables, labelled
    with the active platform and its roofline peaks, for
    [--trace-summary].  A no-op when the run was not traced. *)
let finish_trace ~prog t =
  if tracing t then begin
    let events = Swtrace.Trace.events () in
    Option.iter
      (fun path ->
        try
          Swtrace.Chrome.write_file path events;
          Fmt.pr "@.trace: %d events -> %s" (List.length events) path;
          let dropped = Swtrace.Trace.dropped () in
          if dropped > 0 then Fmt.pr " (%d oldest events dropped)" dropped;
          Fmt.pr "@."
        with Sys_error msg -> fail ~code:1 ~prog ("cannot write trace: " ^ msg))
      t.file;
    if t.summary then begin
      let cfg = Common.cfg () in
      Swtrace.Summary.print
        ~platform:
          (Printf.sprintf "%s (%s), %d-lane SIMD, %d domain(s)"
             cfg.Swarch.Config.display cfg.Swarch.Config.name
             cfg.Swarch.Config.simd_lanes (Swpar.Domains.get ()))
        ~peak_flops:
          (float_of_int cfg.Swarch.Config.cpe_count
          *. float_of_int cfg.Swarch.Config.simd_lanes
          *. cfg.Swarch.Config.cpe_freq_hz)
        ~peak_bw:(Swarch.Config.peak_dma_bw cfg)
        Fmt.stdout events
    end;
    Swtrace.Trace.disable ()
  end
