(* Tests for the I/O substrate. *)

open Swio

(* ------------------------------------------------------------------ *)
(* Fast_format *)

let test_format_integers () =
  Alcotest.(check string) "zero" "0" (Fast_format.float_to_string 0.0 ~decimals:0);
  Alcotest.(check string) "positive" "42" (Fast_format.float_to_string 42.0 ~decimals:0);
  Alcotest.(check string) "negative" "-7" (Fast_format.float_to_string (-7.0) ~decimals:0)

let test_format_decimals () =
  Alcotest.(check string) "3 decimals" "1.500" (Fast_format.float_to_string 1.5 ~decimals:3);
  Alcotest.(check string) "padding" "0.001" (Fast_format.float_to_string 0.001 ~decimals:3);
  Alcotest.(check string) "negative frac" "-0.250" (Fast_format.float_to_string (-0.25) ~decimals:3);
  Alcotest.(check string) "rounding" "0.667" (Fast_format.float_to_string (2.0 /. 3.0) ~decimals:3)

let test_format_rejects_nan () =
  Alcotest.(check bool) "nan rejected" true
    (try ignore (Fast_format.float_to_string Float.nan ~decimals:3); false
     with Invalid_argument _ -> true)

let test_format_rejects_too_many_decimals () =
  Alcotest.(check bool) "decimals cap" true
    (try ignore (Fast_format.float_to_string 1.0 ~decimals:15); false
     with Invalid_argument _ -> true)

let prop_format_matches_printf =
  (* the specialized formatter must agree with printf %.*f *)
  QCheck.Test.make ~name:"fast_format: agrees with printf" ~count:500
    QCheck.(pair (float_range (-99999.0) 99999.0) (int_range 0 6))
    (fun (x, d) ->
      let fast = Fast_format.float_to_string x ~decimals:d in
      let slow = Printf.sprintf "%.*f" d x in
      (* printf uses round-half-even, ours rounds half away: accept
         either by comparing as numbers *)
      Float.abs (float_of_string fast -. float_of_string slow)
      <= 0.51 /. (10.0 ** float_of_int d))

let prop_format_roundtrip =
  QCheck.Test.make ~name:"fast_format: parse-back within half ulp" ~count:500
    QCheck.(float_range (-1e6) 1e6)
    (fun x ->
      let s = Fast_format.float_to_string x ~decimals:4 in
      Float.abs (float_of_string s -. x) <= 0.5 /. 1e4 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Buffered_writer *)

let test_writer_accumulates () =
  let sink = Buffer.create 64 in
  let w = Buffered_writer.create ~capacity:16 (Buffered_writer.To_buffer sink) in
  Buffered_writer.write_string w "hello ";
  Buffered_writer.write_string w "world";
  Buffered_writer.flush w;
  Alcotest.(check string) "content" "hello world" (Buffer.contents sink)

let test_writer_few_flushes () =
  (* a large buffer means few "write calls" for many small writes *)
  let w = Buffered_writer.create ~capacity:65536 Buffered_writer.Discard in
  for _ = 1 to 10000 do
    Buffered_writer.write_string w "0.123 "
  done;
  Buffered_writer.flush w;
  Alcotest.(check bool) "about one flush" true (Buffered_writer.flushes w <= 2);
  Alcotest.(check int) "payload counted" 60000 (Buffered_writer.bytes_written w)

let test_writer_small_buffer_many_flushes () =
  let w = Buffered_writer.create ~capacity:64 Buffered_writer.Discard in
  for _ = 1 to 1000 do
    Buffered_writer.write_string w "0.123 "
  done;
  Buffered_writer.flush w;
  Alcotest.(check bool) "many flushes" true (Buffered_writer.flushes w > 50)

let test_writer_write_fixed () =
  let sink = Buffer.create 64 in
  let w = Buffered_writer.create ~capacity:256 (Buffered_writer.To_buffer sink) in
  Buffered_writer.write_fixed w 3.14159 ~decimals:2;
  Buffered_writer.flush w;
  Alcotest.(check string) "fixed" "3.14" (Buffer.contents sink)

(* ------------------------------------------------------------------ *)
(* Trajectory *)

let test_trajectory_paths_agree () =
  (* both output paths must produce numerically identical frames *)
  let n = 50 in
  let rng = Mdcore.Rng.create 5 in
  let pos = Fvec.of_array (Array.init (3 * n) (fun _ -> Mdcore.Rng.uniform rng (-5.0) 5.0)) in
  let render path =
    let sink = Buffer.create 4096 in
    let w = Buffered_writer.create ~capacity:65536 (Buffered_writer.To_buffer sink) in
    ignore (Trajectory.write_frame ~path w ~step:7 ~pos ~n);
    Buffered_writer.flush w;
    Buffer.contents sink
  in
  let std = render Trajectory.Standard and fast = render Trajectory.Fast in
  (* parse all numbers from both and compare *)
  let numbers s =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter_map (fun tok -> float_of_string_opt (String.trim tok))
  in
  let a = numbers std and b = numbers fast in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "same value" true (Float.abs (x -. y) <= 0.0011))
    a b

let test_io_model_fast_wins () =
  let slow = Io_model.frame_time ~path:Io_model.Standard ~n_atoms:100000 in
  let fast = Io_model.frame_time ~path:Io_model.Fast ~n_atoms:100000 in
  Alcotest.(check bool)
    (Printf.sprintf "fast path >5x faster (%.1fx)" (slow /. fast))
    true
    (slow /. fast > 5.0)

(* ------------------------------------------------------------------ *)
(* Checkpoint: hostile input.  The parser must reject every corruption
   with Invalid_argument — never crash, loop, or silently truncate. *)

let sample_checkpoint () =
  let n = 4 in
  let pos = Fvec.of_array (Array.init (3 * n) (fun i -> 0.1 *. float_of_int (i + 1))) in
  let vel = Fvec.of_array (Array.init (3 * n) (fun i -> -0.01 *. float_of_int (i + 1))) in
  Checkpoint.capture ~step:10 ~pos ~vel ~n_atoms:n ()

let rejects name f =
  match f () with
  | _ -> Alcotest.failf "%s: hostile input accepted" name
  | exception Invalid_argument _ -> ()

let test_checkpoint_truncation_fuzz () =
  let ck = sample_checkpoint () in
  let good = Checkpoint.to_string ck in
  let full = Checkpoint.of_string good in
  Alcotest.(check bool) "round-trip exact" true (full = ck);
  (* a prefix cut at any byte must be rejected, with one inherent
     exception: a cut inside the very last float line still parses
     (a shortened hex literal is itself valid and the value count
     still matches) — there the damage is confined to that one value *)
  let last_line_start = String.rindex_from good (String.length good - 2) '\n' in
  for k = 0 to String.length good - 1 do
    match Checkpoint.of_string (String.sub good 0 k) with
    | parsed ->
        if k <= last_line_start then
          Alcotest.failf "truncation at byte %d accepted" k;
        Alcotest.(check int) "step survives" ck.Checkpoint.step
          parsed.Checkpoint.step;
        Alcotest.(check bool) "positions survive" true
          (parsed.Checkpoint.pos = ck.Checkpoint.pos);
        Array.iteri
          (fun i v ->
            if i < Array.length parsed.Checkpoint.vel - 1
               && v <> ck.Checkpoint.vel.(i)
            then Alcotest.failf "cut at %d corrupted velocity %d" k i)
          parsed.Checkpoint.vel
    | exception Invalid_argument _ -> ()
  done

let test_checkpoint_hostile_headers () =
  let body = String.concat "" (List.init 6 (fun _ -> "0x1p0\n")) in
  let with_header h = "swgmx-checkpoint 1\n" ^ h ^ "\n" ^ body in
  rejects "negative step" (fun () -> Checkpoint.of_string (with_header "-1 1"));
  rejects "negative atoms" (fun () -> Checkpoint.of_string (with_header "10 -1"));
  (* an overflowing count must fail the guard, not the allocator *)
  rejects "overflowing atoms" (fun () ->
      Checkpoint.of_string (with_header "10 4611686018427387903"));
  rejects "non-numeric header" (fun () ->
      Checkpoint.of_string (with_header "ten 1"));
  rejects "missing field" (fun () -> Checkpoint.of_string (with_header "10"));
  rejects "bad magic" (fun () ->
      Checkpoint.of_string ("swgmx-checkpoint 9\n10 1\n" ^ body));
  rejects "empty input" (fun () -> Checkpoint.of_string "")

let test_checkpoint_hostile_values () =
  let ck = sample_checkpoint () in
  let good = Checkpoint.to_string ck in
  let lines = String.split_on_char '\n' good in
  let patch i v =
    String.concat "\n" (List.mapi (fun j l -> if j = i then v else l) lines)
  in
  (* corrupt each float line in turn with every class of bad value *)
  List.iter
    (fun bad ->
      for i = 3 to 3 + (6 * 4) - 1 do
        rejects
          (Printf.sprintf "line %d <- %S" i bad)
          (fun () -> Checkpoint.of_string (patch i bad))
      done)
    [ "nan"; "inf"; "-inf"; "junk"; "" ];
  (* junk appended after the exact payload *)
  rejects "trailing junk" (fun () -> Checkpoint.of_string (good ^ "junk\n"));
  rejects "trailing float" (fun () -> Checkpoint.of_string (good ^ "0x1p0\n"))

(* denormals are legal floats no simulated trajectory produces: a
   checkpoint carrying one is damaged input, sanitized on parse by
   flushing to signed zero — so a hostile restart can never feed the
   engine the flushed range (NaN/inf are rejected outright above) *)
let test_checkpoint_denormal_sanitized () =
  let ck = sample_checkpoint () in
  let good = Checkpoint.to_string ck in
  let lines = String.split_on_char '\n' good in
  let patch i v =
    String.concat "\n" (List.mapi (fun j l -> if j = i then v else l) lines)
  in
  (* line 3 is pos.(0) in the v2 format (magic, platform, header) *)
  let first_pos s = (Checkpoint.of_string s).Checkpoint.pos.(0) in
  let check_bits msg expected got =
    Alcotest.(check int64) msg (Int64.bits_of_float expected)
      (Int64.bits_of_float got)
  in
  List.iter
    (fun d -> check_bits (d ^ " flushed to +0") 0.0 (first_pos (patch 3 d)))
    [ "0x1p-1060"; "0x0.fffffffffffffp-1022"; "0x0.0000000000001p-1022" ];
  List.iter
    (fun d -> check_bits (d ^ " flushed to -0") (-0.0) (first_pos (patch 3 d)))
    [ "-0x1p-1060"; "-0x0.0000000000001p-1022" ];
  (* the smallest *normal* float is genuine data and survives exactly *)
  check_bits "min_float passes through" 0x1p-1022 (first_pos (patch 3 "0x1p-1022"));
  check_bits "-min_float passes through" (-0x1p-1022)
    (first_pos (patch 3 "-0x1p-1022"));
  (* every untouched value still round-trips bit for bit *)
  let parsed = Checkpoint.of_string (patch 3 "0x1p-1060") in
  Array.iteri
    (fun i v ->
      if i > 0 then check_bits (Printf.sprintf "pos %d untouched" i)
          ck.Checkpoint.pos.(i) v)
    parsed.Checkpoint.pos;
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "vel %d untouched" i)
        ck.Checkpoint.vel.(i) v)
    parsed.Checkpoint.vel;
  (* a sanitized checkpoint restores into live buffers with no
     denormal (and nothing non-finite) left to propagate *)
  let n = ck.Checkpoint.n_atoms in
  let pos = Fvec.create (3 * n) and vel = Fvec.create (3 * n) in
  ignore (Checkpoint.restore parsed ~pos ~vel);
  for i = 0 to (3 * n) - 1 do
    let check_clean what (x : float) =
      if not (Float.is_finite x) then
        Alcotest.failf "%s %d non-finite after restore" what i;
      if x <> 0.0 && Float.abs x < Float.min_float then
        Alcotest.failf "%s %d still denormal after restore" what i
    in
    check_clean "pos" pos.{i};
    check_clean "vel" vel.{i}
  done

(* ------------------------------------------------------------------ *)
(* Checkpoint *)

module Md = Mdcore

let test_checkpoint_roundtrip_bitexact () =
  let st = Md.Water.build ~molecules:20 ~seed:41 () in
  let n = Md.Md_state.n_atoms st in
  let cp =
    Checkpoint.capture ~step:123 ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel
      ~n_atoms:n ()
  in
  let s = Checkpoint.to_string cp in
  let cp2 = Checkpoint.of_string s in
  let pos = Md.Fbuf.create (3 * n) and vel = Md.Fbuf.create (3 * n) in
  let step = Checkpoint.restore cp2 ~pos ~vel in
  Alcotest.(check int) "step" 123 step;
  Md.Fbuf.iteri
    (fun i x ->
      if x <> Md.Fbuf.get st.Md.Md_state.pos i then
        Alcotest.failf "pos %d not bit-exact" i)
    pos;
  Md.Fbuf.iteri
    (fun i v ->
      if v <> Md.Fbuf.get st.Md.Md_state.vel i then
        Alcotest.failf "vel %d not bit-exact" i)
    vel

let test_checkpoint_restart_reproduces_run () =
  (* run 20 steps; checkpoint at 10; restart must match the original *)
  let mk () = Md.Water.build ~molecules:12 ~seed:43 () in
  let config st =
    let rcut = 0.45 *. Md.Box.min_edge st.Md.Md_state.box in
    {
      Md.Workflow.dt = 0.001;
      nstlist = 5;
      rlist = rcut;
      nb = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field };
      pme_grid = None;
      thermostat = None;
    }
  in
  let st1 = mk () in
  let w1 = Md.Workflow.create ~config:(config st1) st1 in
  Md.Workflow.run w1 10;
  let cp =
    Checkpoint.capture ~step:10 ~pos:st1.Md.Md_state.pos
      ~vel:st1.Md.Md_state.vel ~n_atoms:(Md.Md_state.n_atoms st1) ()
  in
  Md.Workflow.run w1 10;
  (* restart from the serialized checkpoint *)
  let st2 = mk () in
  let w2 = Md.Workflow.create ~config:(config st2) st2 in
  let cp2 = Checkpoint.of_string (Checkpoint.to_string cp) in
  ignore
    (Checkpoint.restore cp2 ~pos:st2.Md.Md_state.pos ~vel:st2.Md.Md_state.vel);
  Md.Workflow.run w2 10;
  (* tolerance class: physical-drift (Swverify.Tol.drift 1e-12) *)
  Md.Fbuf.iteri
    (fun i x ->
      try
        Swverify.Tol.check ~what:(Printf.sprintf "pos %d" i)
          (Swverify.Tol.drift 1e-12) x
          (Md.Fbuf.get st2.Md.Md_state.pos i)
      with Failure m -> Alcotest.fail m)
    st1.Md.Md_state.pos

let test_checkpoint_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "rejected" true
        (try ignore (Checkpoint.of_string s); false
         with Invalid_argument _ -> true))
    [ ""; "wrong magic\n1 1\n"; "swgmx-checkpoint 1\n5\n"; "swgmx-checkpoint 1\n1 2\n0.0\n" ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_format_matches_printf; prop_format_roundtrip ]

let suites =
  [
    ( "swio.fast_format",
      [
        Alcotest.test_case "integers" `Quick test_format_integers;
        Alcotest.test_case "decimals" `Quick test_format_decimals;
        Alcotest.test_case "rejects nan" `Quick test_format_rejects_nan;
        Alcotest.test_case "decimals cap" `Quick test_format_rejects_too_many_decimals;
      ] );
    ( "swio.buffered_writer",
      [
        Alcotest.test_case "accumulates" `Quick test_writer_accumulates;
        Alcotest.test_case "few flushes with big buffer" `Quick test_writer_few_flushes;
        Alcotest.test_case "many flushes with small buffer" `Quick test_writer_small_buffer_many_flushes;
        Alcotest.test_case "write_fixed" `Quick test_writer_write_fixed;
      ] );
    ( "swio.trajectory",
      [
        Alcotest.test_case "fast = standard output" `Quick test_trajectory_paths_agree;
        Alcotest.test_case "cost model favours fast path" `Quick test_io_model_fast_wins;
      ] );
    ( "swio.hostile_input",
      [
        Alcotest.test_case "checkpoint: truncation fuzz" `Quick
          test_checkpoint_truncation_fuzz;
        Alcotest.test_case "checkpoint: hostile headers" `Quick
          test_checkpoint_hostile_headers;
        Alcotest.test_case "checkpoint: hostile values" `Quick
          test_checkpoint_hostile_values;
        Alcotest.test_case "checkpoint: denormals sanitized" `Quick
          test_checkpoint_denormal_sanitized;
      ] );
    ( "swio.checkpoint",
      [
        Alcotest.test_case "bit-exact roundtrip" `Quick test_checkpoint_roundtrip_bitexact;
        Alcotest.test_case "restart reproduces run" `Quick test_checkpoint_restart_reproduces_run;
        Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
      ] );
    ("swio.properties", qsuite);
  ]
