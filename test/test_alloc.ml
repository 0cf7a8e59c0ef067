(* Allocation discipline and flat-state goldens.

   Two layers.  The golden layer pins the physics of the flat Bigarray
   MD state against literal bit patterns captured from the seed
   [float array] implementation: reference nonbonded energies/forces,
   the Mark kernel outcome and checkpoint bytes must reproduce them
   exactly, at --domains 1 and 4 alike — a refactor of the state layout
   must never move a single bit.

   The allocation layer is the runtest gate of the zero-allocation
   refactor: one hot nonbonded step must allocate nothing per
   interaction (measured as a [Gc.minor_words] delta), and its total
   per-step allocation must stay under a pinned budget.  If a boxed
   float or closure sneaks back into the pair loop, the per-step count
   jumps by tens of thousands of words and this suite fails. *)

module Md = Mdcore
module K = Swgmx.Kernel_common
module V = Swgmx.Variant
module E = Swgmx.Engine

let bits = Int64.bits_of_float

(* order-dependent FNV-style fold over the IEEE bits of a buffer *)
let mix acc x = Int64.add (Int64.mul acc 0x100000001b3L) (Int64.logxor acc x)

let checksum_fbuf b =
  let acc = ref 0L in
  for i = 0 to Md.Fbuf.length b - 1 do
    acc := mix !acc (bits (Md.Fbuf.get b i))
  done;
  !acc

let checksum_floats a =
  let acc = ref 0L in
  Array.iter (fun f -> acc := mix !acc (bits f)) a;
  !acc

let with_domains d f =
  Swpar.Domains.set d;
  Fun.protect ~finally:(fun () -> Swpar.Domains.set 1) f

(* the standard water snapshot the reference kernel goldens pin *)
let reference_setup () =
  let st = Md.Water.build ~molecules:200 ~seed:2019 () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs =
    Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut ()
  in
  (st, cl, pairs, params)

(* --- goldens: the flat state reproduces the seed bits ------------------ *)

let test_reference_nonbonded_goldens () =
  let st, cl, pairs, params = reference_setup () in
  let energy = Md.Energy.create () in
  let inside = Md.Nonbonded.compute st cl pairs params energy in
  Alcotest.(check int64)
    "e_lj bits" 4649261371169192853L
    (bits energy.Md.Energy.lj);
  Alcotest.(check int64)
    "e_coul bits" 4648026074578458787L
    (bits energy.Md.Energy.coulomb_sr);
  Alcotest.(check int) "pairs in cutoff" 68329 inside;
  Alcotest.(check int64)
    "force checksum" (-4290675607119285626L)
    (checksum_fbuf st.Md.Md_state.force)

let test_kernel_goldens_across_domains () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let p = Swbench.Common.prepare ~particles:600 () in
          let cg = Swarch.Core_group.create (Swbench.Common.cfg ()) in
          let res, _ =
            Swgmx.Kernel_cpe.run p.Swbench.Common.sys p.Swbench.Common.pairs cg
              (Swgmx.Kernel_cpe.spec_of_variant V.Mark)
          in
          let ctx = Printf.sprintf "domains=%d" d in
          Alcotest.(check int64)
            (ctx ^ ": e_lj bits") 4649261369885646848L
            (bits (K.e_lj res));
          Alcotest.(check int64)
            (ctx ^ ": e_coul bits") 4648026073180799232L
            (bits (K.e_coul res));
          Alcotest.(check int64)
            (ctx ^ ": force checksum") (-1266019375033049088L)
            (checksum_floats res.K.force)))
    [ 1; 4 ]

let test_checkpoint_goldens_across_domains () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let captured = ref [] in
          let _s, _st, _stats =
            E.simulate_protected ~molecules:20 ~seed:7 ~steps:20 ~sample_every:20
              ~checkpoint_every:10
              ~on_checkpoint:(fun ck ->
                captured := Swio.Checkpoint.to_string ck :: !captured)
              ()
          in
          let ctx = Printf.sprintf "domains=%d" d in
          Alcotest.(check int) (ctx ^ ": checkpoints") 3 (List.length !captured);
          Alcotest.(check string)
            (ctx ^ ": checkpoint bytes digest")
            "36992c191b005b1332ef7c13bed78dfb"
            (Digest.to_hex (Digest.string (String.concat "" (List.rev !captured))))))
    [ 1; 4 ]

(* --- the allocation gate ----------------------------------------------- *)

(* Pinned budget for one full nonbonded step (68329 pairs): the hot
   loop allocates nothing, so the whole step may spend at most a small
   constant — today it measures 0 words.  A single boxed float per
   pair would cost ~200k words and trip this immediately. *)
let step_budget_words = 256.0

let alloc_setup = lazy (reference_setup ())

let nonbonded_step_sample ~steps =
  let st, cl, pairs, params = Lazy.force alloc_setup in
  let n = Md.Md_state.n_atoms st in
  let energy = Md.Energy.create () in
  let step () =
    Md.Energy.reset energy;
    Md.Fbuf.fill st.Md.Md_state.force 0 (3 * n) 0.0;
    ignore (Md.Nonbonded.compute st cl pairs params energy)
  in
  Swbench.Alloc.measure ~warmup:2 ~steps step

let test_step_alloc_budget () =
  let s = nonbonded_step_sample ~steps:8 in
  let w = Swbench.Alloc.words s in
  if w > step_budget_words then
    Alcotest.failf "nonbonded step allocates %.1f words (budget %.1f)" w
      step_budget_words

(* property: the per-interaction allocation is zero — the minor-words
   delta per step stays under the constant budget for any number of
   measured steps, i.e. it cannot be hiding a per-pair term *)
let qalloc_per_interaction_zero =
  QCheck.Test.make ~name:"nonbonded: zero words per interaction" ~count:6
    QCheck.(int_range 2 8)
    (fun steps ->
      let s = nonbonded_step_sample ~steps in
      let per_pair = s.Swbench.Alloc.minor_words /. 68329.0 in
      s.Swbench.Alloc.minor_words <= step_budget_words && per_pair < 0.01)

(* The SIMD ops the vector kernels run per cluster pair: each must
   allocate nothing per call.  Counted with [Gc.minor_words], which
   reads the allocation pointer: [Gc.quick_stat]'s minor count only
   moves at a minor collection, far too coarse for a few thousand
   calls.  A no-op timed the same way carries the loop's own constant,
   so an op matches it exactly or it allocates. *)
let simd_calls = 1000

let minor_words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to simd_calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int simd_calls

let simd_ops lanes =
  let module S = Swarch.Simd in
  let c = Swarch.Cost.create () in
  let v () =
    let v = S.zero lanes in
    S.init_into v (fun i -> float_of_int (i + 1));
    v
  in
  let d = v () and x = v () and y = v () and m = v () in
  let narrow_dst = S.zero 4 and x4 = S.zero 4 and out = Array.make 12 0.0 in
  [
    ("splat_into", fun () -> S.splat_into d 1.5);
    ("add_into", fun () -> S.add_into c d x y);
    ("sub_into", fun () -> S.sub_into c d x y);
    ("mul_into", fun () -> S.mul_into c d x y);
    ("fma_into", fun () -> S.fma_into c d x y x);
    ("round_into", fun () -> S.round_into c d x);
    ("rsqrt_into", fun () -> S.rsqrt_into c d x);
    ("cmp_lt_into", fun () -> S.cmp_lt_into c m x y);
    ("select_into", fun () -> S.select_into c d m x y);
    ("narrow_into", fun () -> S.narrow_into c narrow_dst x);
    ("transpose3x4_into", fun () -> S.transpose3x4_into c x4 x4 x4 out);
  ]

let test_simd_ops_alloc_free lanes () =
  let baseline = minor_words_per_call (fun () -> ()) in
  List.iter
    (fun (name, f) ->
      let w = minor_words_per_call f in
      if w <> baseline then
        Alcotest.failf "Simd.%s at %d lanes allocates %.2f words per call" name
          lanes (w -. baseline))
    (simd_ops lanes)

(* [Read_cache.touch] at each associativity: a hit allocates nothing
   and a miss (tag math, line blit, DMA charge) at most 7 words.  Each
   miss stream cycles one more conflicting line than a set holds. *)
let test_read_cache_touch_alloc () =
  let backing = Array.make (3072 * 4) 1.0 in
  List.iter
    (fun (ways, misses) ->
      let rc =
        Swcache.Read_cache.create Swarch.Config.default (Swarch.Cost.create ())
          ~backing ~ways ~elt_floats:4 ~line_elts:8 ~n_lines:16 ()
      in
      let words stream =
        let k = ref 0 in
        minor_words_per_call (fun () ->
            ignore (Swcache.Read_cache.touch rc stream.(!k));
            k := (!k + 1) mod Array.length stream)
        -. minor_words_per_call (fun () -> ())
      in
      let hit = words [| 5 |] in
      let miss = words misses in
      if hit <> 0.0 || miss > 7.0 then
        Alcotest.failf "Read_cache.touch at ways %d: hit %.2f, miss %.2f words"
          ways hit miss)
    [ (1, [| 0; 128 |]); (2, [| 0; 512; 1024 |]) ]

let suites =
  [
    ( "alloc.goldens",
      [
        Alcotest.test_case "reference nonbonded seed bits" `Quick
          test_reference_nonbonded_goldens;
        Alcotest.test_case "Mark kernel seed bits at domains 1/4" `Quick
          test_kernel_goldens_across_domains;
        Alcotest.test_case "checkpoint bytes digest at domains 1/4" `Quick
          test_checkpoint_goldens_across_domains;
      ] );
    ( "alloc.gate",
      Alcotest.test_case "nonbonded step under pinned budget" `Quick
        test_step_alloc_budget
      :: Alcotest.test_case "SIMD ops allocate nothing at 4 lanes" `Quick
           (test_simd_ops_alloc_free 4)
      :: Alcotest.test_case "SIMD ops allocate nothing at 8 lanes" `Quick
           (test_simd_ops_alloc_free 8)
      :: Alcotest.test_case "read cache touch: hit 0 words, miss <= 7" `Quick
           test_read_cache_touch_alloc
      ::List.map QCheck_alcotest.to_alcotest [ qalloc_per_interaction_zero ] );
  ]
