(* Tests for the swstore subsystem: content addresses, the chunk and
   manifest codecs under hostile input, the LRU cache, the keyed
   store, checkpoint/trajectory objects and the promoted persistent
   measure cache. *)

open Swstore

let corrupt name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Error.Corrupt _ -> true)

let decode_fails name s =
  Alcotest.(check bool) name true (Result.is_error (Chunk.decode s))

let manifest_fails name s =
  Alcotest.(check bool) name true (Result.is_error (Manifest.of_string s))

(* ------------------------------------------------------------------ *)
(* sha256 *)

let test_sha256_vectors () =
  (* FIPS 180-4 test vectors *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  Alcotest.(check string) "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_key_shape () =
  Alcotest.(check bool) "hex is a key" true (Sha256.is_key (Sha256.hex "x"));
  Alcotest.(check bool) "uppercase rejected" false
    (Sha256.is_key (String.uppercase_ascii (Sha256.hex "x")));
  Alcotest.(check bool) "short rejected" false (Sha256.is_key "abc123")

(* ------------------------------------------------------------------ *)
(* chunk codec *)

let test_chunk_roundtrip () =
  List.iter
    (fun payload ->
      let c = Chunk.make payload in
      match Chunk.decode (Chunk.encode c) with
      | Ok d ->
          Alcotest.(check string) "payload" payload d.Chunk.payload;
          Alcotest.(check string) "key" c.Chunk.key d.Chunk.key
      | Error e -> Alcotest.failf "roundtrip failed: %s" (Error.to_string e))
    [ ""; "x"; String.make 1000 '\x00';
      String.init 5000 (fun i -> Char.chr (i mod 256)) ]

let test_chunk_split () =
  let payload = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let pieces = Chunk.split ~size:256 payload in
  Alcotest.(check int) "piece count" 4 (List.length pieces);
  Alcotest.(check string) "reassembles" payload (String.concat "" pieces);
  Alcotest.(check int) "empty payload is one piece" 1
    (List.length (Chunk.split ~size:256 ""))

let test_chunk_truncation_fuzz () =
  let encoded = Chunk.encode (Chunk.make "some chunk payload bytes") in
  for len = 0 to String.length encoded - 1 do
    decode_fails
      (Printf.sprintf "prefix %d rejected" len)
      (String.sub encoded 0 len)
  done

let test_chunk_hostile () =
  let c = Chunk.make "payload" in
  let encoded = Chunk.encode c in
  decode_fails "empty" "";
  decode_fails "garbage" "not a chunk at all";
  decode_fails "bad magic" ("swstore-chunk 9\n" ^ c.Chunk.key ^ " 7\npayload");
  decode_fails "bad key shape" "swstore-chunk 1\nzz 7\npayload";
  decode_fails "negative length"
    ("swstore-chunk 1\n" ^ c.Chunk.key ^ " -1\npayload");
  decode_fails "oversized length"
    (Printf.sprintf "swstore-chunk 1\n%s %d\npayload" c.Chunk.key
       (Chunk.max_payload + 1));
  decode_fails "trailing bytes" (encoded ^ "x");
  (* flip one payload byte: the hash no longer matches the key *)
  let b = Bytes.of_string encoded in
  let at = Bytes.length b - 1 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
  (match Chunk.decode (Bytes.to_string b) with
  | Error (Error.Hash_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "corrupted chunk accepted")

(* ------------------------------------------------------------------ *)
(* manifest codec *)

let sample_manifest () =
  Manifest.v ~kind:"trajectory" ~name:"run-1"
    ~meta:[ ("frames", "3"); ("note", "spaces are fine here") ]
    [ (Sha256.hex "a", 10); (Sha256.hex "b", 0); (Sha256.hex "c", 4096) ]

let test_manifest_roundtrip () =
  let m = sample_manifest () in
  match Manifest.of_string (Manifest.to_string m) with
  | Ok d ->
      Alcotest.(check string) "kind" m.Manifest.kind d.Manifest.kind;
      Alcotest.(check string) "name" m.Manifest.name d.Manifest.name;
      Alcotest.(check int) "chunks" 3 (List.length d.Manifest.chunks);
      Alcotest.(check (option string)) "meta value"
        (Some "spaces are fine here")
        (Manifest.meta_value d "note");
      Alcotest.(check int) "total bytes" 4106 (Manifest.total_bytes d)
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Error.to_string e)

let test_manifest_truncation_fuzz () =
  let encoded = Manifest.to_string (sample_manifest ()) in
  for len = 0 to String.length encoded - 1 do
    manifest_fails
      (Printf.sprintf "prefix %d rejected" len)
      (String.sub encoded 0 len)
  done

let test_manifest_hostile () =
  let good = Manifest.to_string (sample_manifest ()) in
  manifest_fails "empty" "";
  manifest_fails "garbage" "complete nonsense\nmore nonsense\n";
  manifest_fails "bad magic" ("swstore-manifest 9\n" ^ good);
  manifest_fails "missing name" "swstore-manifest 1\nkind kv\nchunks 0\n";
  manifest_fails "bad count" "swstore-manifest 1\nkind kv\nname x\nchunks no\n";
  manifest_fails "count larger than list"
    "swstore-manifest 1\nkind kv\nname x\nchunks 2\n";
  manifest_fails "oversized count"
    (Printf.sprintf "swstore-manifest 1\nkind kv\nname x\nchunks %d\n"
       (Manifest.max_chunks + 1));
  manifest_fails "bad chunk key"
    "swstore-manifest 1\nkind kv\nname x\nchunks 1\nnothex 12\n";
  manifest_fails "oversized chunk size"
    (Printf.sprintf "swstore-manifest 1\nkind kv\nname x\nchunks 1\n%s %d\n"
       (Sha256.hex "a")
       (Chunk.max_payload + 1));
  manifest_fails "trailing junk" (good ^ "extra line\n")

(* ------------------------------------------------------------------ *)
(* the store *)

let test_store_chunk_roundtrip () =
  let s = Store.open_memory () in
  let key = Store.put_chunk s "hello chunks" in
  Alcotest.(check bool) "present" true (Store.has_chunk s key);
  Alcotest.(check string) "read back" "hello chunks" (Store.get_chunk_exn s key);
  (* re-putting identical content dedups *)
  let key2 = Store.put_chunk s "hello chunks" in
  Alcotest.(check string) "same key" key key2;
  Alcotest.(check int) "one chunk stored" 1 (Store.chunk_count s)

let test_store_missing_chunk () =
  let s = Store.open_memory () in
  match Store.get_chunk s (Sha256.hex "nope") with
  | Error (Error.Missing _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "missing chunk returned data"

let test_store_detects_corruption () =
  let s = Store.open_memory () in
  let key = Store.put_chunk s (String.make 100 'q') in
  Store.corrupt_chunk s key ~at:50;
  match Store.get_chunk s key with
  | Error (Error.Hash_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "corrupted chunk returned as data"

let test_store_rejects_bad_names () =
  let s = Store.open_memory () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "name %S rejected" name)
        true
        (try
           ignore (Store.has_manifest s name);
           false
         with Invalid_argument _ -> true))
    [ ""; "../escape"; "a/b"; ".hidden"; String.make 300 'a' ]

let with_temp_dir f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "swstore-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists root then rm root;
  Fun.protect ~finally:(fun () -> if Sys.file_exists root then rm root)
    (fun () -> f root)

let test_store_dir_backend () =
  with_temp_dir (fun root ->
      let key =
        let s = Store.open_dir root in
        let key = Store.put_chunk s "persistent payload" in
        Store.put_manifest s
          (Manifest.v ~kind:"kv" ~name:"obj" [ (key, 18) ]);
        key
      in
      (* a fresh open sees the same objects *)
      let s = Store.open_dir root in
      Alcotest.(check string) "chunk survives" "persistent payload"
        (Store.get_chunk_exn s key);
      let m = Store.get_manifest_exn s "obj" in
      Alcotest.(check string) "manifest survives" "kv" m.Manifest.kind;
      Alcotest.(check (list string)) "names" [ "obj" ] (Store.manifest_names s);
      (* corruption on disk is detected on read *)
      Store.corrupt_chunk s key ~at:3;
      corrupt "disk corruption detected" (fun () -> Store.get_chunk_exn s key))

(* transient read faults: one EIO from a loaded filesystem must be
   retried (with backoff, mirroring the DMA engine's recovery), while a
   persistent failure must surface as the structured exhaustion error —
   never a silent partial read, never an unbounded spin *)
let with_fault_hook hook f =
  Store.read_fault_hook := hook;
  Fun.protect
    ~finally:(fun () -> Store.read_fault_hook := (fun _ -> ()))
    f

let test_store_read_retries_transient () =
  with_temp_dir (fun root ->
      let s = Store.open_dir root in
      let key = Store.put_chunk s "flaky payload" in
      Store.put_manifest s (Manifest.v ~kind:"kv" ~name:"obj" [ (key, 13) ]);
      let failures = ref 2 in
      with_fault_hook
        (fun _ ->
          if !failures > 0 then begin
            decr failures;
            raise (Sys_error "injected transient EIO")
          end)
        (fun () ->
          Alcotest.(check string) "chunk read recovers" "flaky payload"
            (Store.get_chunk_exn s key);
          Alcotest.(check int) "both injected faults consumed" 0 !failures);
      let failures = ref 2 in
      with_fault_hook
        (fun _ ->
          if !failures > 0 then begin
            decr failures;
            raise (Sys_error "injected transient EIO")
          end)
        (fun () ->
          let m = Store.get_manifest_exn s "obj" in
          Alcotest.(check string) "manifest read recovers" "kv" m.Manifest.kind))

let test_store_read_exhaustion () =
  with_temp_dir (fun root ->
      let s = Store.open_dir root in
      let key = Store.put_chunk s "unreachable payload" in
      with_fault_hook
        (fun _ -> raise (Sys_error "injected persistent EIO"))
        (fun () ->
          match Store.get_chunk s key with
          | Error (Error.Io_exhausted { attempts; last; _ }) ->
              Alcotest.(check int) "first try + every retry counted"
                (1 + !Store.read_retries) attempts;
              Alcotest.(check string) "last OS error preserved"
                "injected persistent EIO" last
          | Error e ->
              Alcotest.failf "expected Io_exhausted, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "read of faulted path succeeded");
      (* the store recovers as soon as the fault clears *)
      Alcotest.(check string) "healthy again" "unreachable payload"
        (Store.get_chunk_exn s key))

(* ------------------------------------------------------------------ *)
(* the cache *)

let test_cache_hit_miss_counting () =
  let cache = Cache.create (Store.open_memory ()) in
  let key = Cache.put cache "cached payload" in
  ignore (Cache.get_exn cache key);
  ignore (Cache.get_exn cache key);
  let s = Cache.stats cache in
  Alcotest.(check int) "hits" 2 s.Swcache.Stats.hits;
  Alcotest.(check int) "misses" 0 s.Swcache.Stats.misses;
  Alcotest.(check int) "writebacks" 1 s.Swcache.Stats.writebacks;
  Cache.clear cache;
  ignore (Cache.get_exn cache key);
  Alcotest.(check int) "miss after clear" 1 s.Swcache.Stats.misses;
  Alcotest.(check int) "refilled" 1 (Cache.entries cache)

let test_cache_lru_eviction () =
  (* room for exactly two 100-byte chunks; the least recently used one
     is displaced *)
  let cache = Cache.create ~capacity:200 (Store.open_memory ()) in
  let ka = Cache.put cache (String.make 100 'a') in
  let kb = Cache.put cache (String.make 100 'b') in
  ignore (Cache.get_exn cache ka);
  (* a third chunk displaces b (a was used more recently) *)
  let _kc = Cache.put cache (String.make 100 'c') in
  let s = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Swcache.Stats.evictions;
  Alcotest.(check int) "two resident" 2 (Cache.entries cache);
  Alcotest.(check int) "bytes bounded" 200 (Cache.used_bytes cache);
  (* b refills from the store on demand — nothing was lost *)
  let before = s.Swcache.Stats.misses in
  Alcotest.(check string) "b still readable" (String.make 100 'b')
    (Cache.get_exn cache kb);
  Alcotest.(check int) "b was a miss" (before + 1) s.Swcache.Stats.misses

let test_cache_evict_and_oversized () =
  let cache = Cache.create ~capacity:100 (Store.open_memory ()) in
  let k = Cache.put cache "small" in
  Alcotest.(check bool) "resident evicted" true (Cache.evict cache k);
  Alcotest.(check bool) "already gone" false (Cache.evict cache k);
  (* an over-budget chunk passes through without flushing the cache *)
  let k2 = Cache.put cache "tiny" in
  let _big = Cache.put cache (String.make 200 'B') in
  Alcotest.(check int) "tiny still resident" 1 (Cache.entries cache);
  ignore (Cache.get_exn cache k2)

let test_cache_propagates_corruption () =
  let cache = Cache.create (Store.open_memory ()) in
  let key = Cache.put cache (String.make 64 'z') in
  Cache.clear cache;
  Store.corrupt_chunk (Cache.store cache) key ~at:10;
  corrupt "cache read fails loudly" (fun () -> Cache.get_exn cache key)

(* ------------------------------------------------------------------ *)
(* the keyed store *)

let test_kv_roundtrip () =
  let kv = Kv.create (Cache.create (Store.open_memory ())) in
  let key = [ "measure"; "sw26010"; "Other"; "serial"; "3000"; "4"; "-" ] in
  Alcotest.(check bool) "absent" false (Kv.mem kv ~key);
  Alcotest.(check (option string)) "miss" None (Kv.get kv ~key);
  let value = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  Kv.put kv ~key value;
  Alcotest.(check bool) "present" true (Kv.mem kv ~key);
  Alcotest.(check (option string)) "hit" (Some value) (Kv.get kv ~key);
  let s = Kv.stats kv in
  Alcotest.(check int) "one key hit" 1 s.Swcache.Stats.hits;
  Alcotest.(check int) "one key miss" 1 s.Swcache.Stats.misses;
  (* a different fault-plan component is a different key *)
  Alcotest.(check (option string)) "fault plan in key" None
    (Kv.get kv ~key:[ "measure"; "sw26010"; "Other"; "serial"; "3000"; "4"; "ldm_flip=0.5#7" ])

let test_kv_damaged_store_raises () =
  let cache = Cache.create (Store.open_memory ()) in
  let kv = Kv.create cache in
  Kv.put kv ~key:[ "k" ] (String.make 500 'v');
  Cache.clear cache;
  let chunk_key = Chunk.key (String.make 500 'v') in
  Store.corrupt_chunk (Cache.store cache) chunk_key ~at:100;
  corrupt "damaged value raises, not miss" (fun () -> Kv.get kv ~key:[ "k" ])

let test_kv_persists_across_reopen () =
  with_temp_dir (fun root ->
      let key = [ "persist"; "check" ] in
      (let kv = Kv.create (Cache.create (Store.open_dir root)) in
       Kv.put kv ~key "survives the process");
      let kv = Kv.create (Cache.create (Store.open_dir root)) in
      Alcotest.(check (option string)) "reopened" (Some "survives the process")
        (Kv.get kv ~key))

(* ------------------------------------------------------------------ *)
(* domain objects *)

let test_checkpoint_object_roundtrip () =
  let cache = Cache.create (Store.open_memory ()) in
  let n = 5 in
  let pos = Swio.Fvec.of_array (Array.init (3 * n) (fun i -> 0.1 *. float_of_int i)) in
  let vel = Swio.Fvec.of_array (Array.init (3 * n) (fun i -> -0.01 *. float_of_int i)) in
  let ck =
    Swio.Checkpoint.capture ~platform:"sw26010" ~step:20 ~pos ~vel ~n_atoms:n ()
  in
  Objects.put_checkpoint cache ~name:"head" ck;
  let back = Objects.get_checkpoint cache ~name:"head" in
  (* the serialized forms must be byte-identical: restart depends on it *)
  Alcotest.(check string) "bit identical"
    (Swio.Checkpoint.to_string ck)
    (Swio.Checkpoint.to_string back)

let test_checkpoint_object_corruption () =
  let cache = Cache.create (Store.open_memory ()) in
  let pos = Swio.Fvec.of_array (Array.make 9 1.0)
  and vel = Swio.Fvec.of_array (Array.make 9 0.0) in
  let ck = Swio.Checkpoint.capture ~step:0 ~pos ~vel ~n_atoms:3 () in
  Objects.put_checkpoint cache ~name:"head" ck;
  (* damage the one chunk behind the object, drop the cached copy *)
  let m = Store.get_manifest_exn (Cache.store cache) "head" in
  let chunk_key, _ = List.hd m.Manifest.chunks in
  Cache.clear cache;
  Store.corrupt_chunk (Cache.store cache) chunk_key ~at:0;
  corrupt "corrupt checkpoint rejected" (fun () ->
      Objects.get_checkpoint cache ~name:"head")

let test_checkpoint_kind_mismatch () =
  (* a keyed-store value is not a checkpoint *)
  let cache = Cache.create (Store.open_memory ()) in
  let kv = Kv.create cache in
  Kv.put kv ~key:[ "head" ] "not a checkpoint";
  let name = Kv.name_of kv [ "head" ] in
  match Objects.get_checkpoint cache ~name with
  | _ -> Alcotest.fail "kv value accepted as a checkpoint"
  | exception Error.Corrupt (Error.Bad_header msg) ->
      Alcotest.(check string) "kind mismatch rejected"
        (name ^ " is a kv, not a checkpoint")
        msg

(* ------------------------------------------------------------------ *)
(* measurement persistence + the promoted measure cache *)

let test_plan_result_roundtrip () =
  let m =
    Swgmx.Engine.measure ~version:Swgmx.Engine.V_other ~total_atoms:600 ~n_cg:2 ()
  in
  let r = m.Swgmx.Engine.step in
  match Swstep.Plan.result_of_string (Swstep.Plan.result_to_string r) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok d ->
      Alcotest.(check string) "label" r.Swstep.Plan.label d.Swstep.Plan.label;
      Alcotest.(check bool) "total bit-exact" true
        (r.Swstep.Plan.total = d.Swstep.Plan.total);
      Alcotest.(check bool) "rows bit-exact" true
        (r.Swstep.Plan.rows = d.Swstep.Plan.rows);
      Alcotest.(check bool) "segments bit-exact" true
        (r.Swstep.Plan.segments = d.Swstep.Plan.segments);
      Alcotest.(check int) "phases dropped" 0
        (List.length d.Swstep.Plan.phases)

let test_plan_result_hostile () =
  let fails name s =
    Alcotest.(check bool) name true
      (Result.is_error (Swstep.Plan.result_of_string s))
  in
  fails "empty" "";
  fails "garbage" "what\nis\nthis\n";
  fails "bad count" "swstep-result 1\nlabel x\nmode serial\ntotal 0x1p+0\ncritical_path 0x1p+0\ncompute_window 0x1p+0\ncomm_total 0x1p+0\ncomm_hidden 0x1p+0\nrows nope\n";
  let m =
    Swgmx.Engine.measure ~version:Swgmx.Engine.V_ori ~total_atoms:600 ~n_cg:2 ()
  in
  let good = Swstep.Plan.result_to_string m.Swgmx.Engine.step in
  fails "trailing junk" (good ^ "extra\n");
  for len = 1 to String.length good - 1 do
    if len mod 7 = 0 then
      fails (Printf.sprintf "prefix %d" len) (String.sub good 0 len)
  done

let test_measurement_roundtrip () =
  let m =
    Swgmx.Engine.measure ~version:Swgmx.Engine.V_other ~total_atoms:600 ~n_cg:2 ()
  in
  match
    Swgmx.Engine.measurement_of_string (Swgmx.Engine.measurement_to_string m)
  with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok d ->
      Alcotest.(check bool) "step_time bit-exact" true
        (m.Swgmx.Engine.step_time = d.Swgmx.Engine.step_time);
      Alcotest.(check int) "atoms" m.Swgmx.Engine.atoms_per_cg
        d.Swgmx.Engine.atoms_per_cg;
      Alcotest.(check bool) "rows bit-exact" true
        (Swgmx.Engine.rows m = Swgmx.Engine.rows d)

let test_measure_store_serves_repeats () =
  let kv = Kv.create (Cache.create (Store.open_memory ())) in
  Swbench.Common.set_measure_store (Some kv);
  Fun.protect
    ~finally:(fun () -> Swbench.Common.set_measure_store None)
    (fun () ->
      let call () =
        Swbench.Common.measure_via ~version:Swgmx.Engine.V_cal ~total_atoms:600
          ~n_cg:2 ()
      in
      let m1, src1 = call () in
      let m2, src2 = call () in
      Alcotest.(check bool) "first computed" true (src1 = Swbench.Common.Computed);
      Alcotest.(check bool) "repeat from store" true
        (src2 = Swbench.Common.Stored);
      Alcotest.(check bool) "identical step time" true
        (m1.Swgmx.Engine.step_time = m2.Swgmx.Engine.step_time);
      Alcotest.(check bool) "identical rows" true
        (Swgmx.Engine.rows m1 = Swgmx.Engine.rows m2))

let test_measure_memo_keyed_by_faults () =
  (* the in-process memo must not hit across fault plans *)
  let healthy =
    Swbench.Common.measure ~version:Swgmx.Engine.V_other ~total_atoms:600
      ~n_cg:2 ()
  in
  let inj =
    Swfault.Injector.create ~seed:3
      (Swfault.Plan.of_string
         ~cpes:(Swbench.Common.cfg ()).Swarch.Platform.cpe_count
         "cpe_slow=0:4.0,cpe_slow=1:4.0")
  in
  let degraded =
    Swbench.Common.measure ~faults:inj ~version:Swgmx.Engine.V_other
      ~total_atoms:600 ~n_cg:2 ()
  in
  Alcotest.(check bool) "fault plan changes the measurement" true
    (healthy.Swgmx.Engine.step_time <> degraded.Swgmx.Engine.step_time)

(* ------------------------------------------------------------------ *)
(* restart through the store, bit-identical *)

let test_restart_from_store_bit_identical () =
  let cache = Cache.create (Store.open_memory ()) in
  let molecules = 8 and seed = 5 and steps = 20 and sample_every = 2 in
  let reference, _, _ =
    Swgmx.Engine.simulate_protected ~checkpoint_every:10 ~molecules ~seed
      ~steps ~sample_every ()
  in
  (* a run that checkpoints into the store, stopped at step 10 *)
  let _, _, _ =
    Swgmx.Engine.simulate_protected ~checkpoint_every:10
      ~on_checkpoint:(Swgmx.Engine.checkpoint_sink cache ~name:"head")
      ~molecules ~seed ~steps:10 ~sample_every ()
  in
  let ck = Swgmx.Engine.restart_of_store cache ~name:"head" in
  Alcotest.(check int) "restart step" 10 ck.Swio.Checkpoint.step;
  let resumed, _, _ =
    Swgmx.Engine.simulate_protected ~restart:ck ~molecules ~seed ~steps
      ~sample_every ()
  in
  let tail smps =
    List.filter (fun (s : Swgmx.Engine.sample) -> s.Swgmx.Engine.step > 10) smps
  in
  Alcotest.(check int) "resumed sample count"
    (List.length (tail reference))
    (List.length (tail resumed));
  List.iter2
    (fun (a : Swgmx.Engine.sample) (b : Swgmx.Engine.sample) ->
      Alcotest.(check int) "step" a.Swgmx.Engine.step b.Swgmx.Engine.step;
      Alcotest.(check bool) "energy bit-identical" true
        (a.Swgmx.Engine.total_energy = b.Swgmx.Engine.total_energy);
      Alcotest.(check bool) "temperature bit-identical" true
        (a.Swgmx.Engine.temperature = b.Swgmx.Engine.temperature))
    (tail reference) (tail resumed)

(* ------------------------------------------------------------------ *)
(* batch manifests *)

let test_batch_parse () =
  let jobs =
    Swbench.Batch.parse_manifest
      "# comment\n\
       kind=measure name=a version=Other plan=overlap atoms=1200 n_cg=2\n\
       \n\
       kind=simulate molecules=8 steps=10 seed=3 # trailing comment\n\
       kind=measure name=c faults=cpe_dead=5 fault_seed=9\n"
  in
  Alcotest.(check int) "three jobs" 3 (List.length jobs);
  let a = List.nth jobs 0 and b = List.nth jobs 1 and c = List.nth jobs 2 in
  Alcotest.(check string) "name" "a" a.Swbench.Batch.name;
  (match a.Swbench.Batch.kind with
  | Swbench.Batch.Measure p ->
      Alcotest.(check int) "atoms" 1200 p.Swbench.Batch.atoms;
      Alcotest.(check bool) "plan" true (p.Swbench.Batch.plan = Swstep.Plan.Overlap)
  | _ -> Alcotest.fail "job a should be measure");
  (match b.Swbench.Batch.kind with
  | Swbench.Batch.Simulate d ->
      Alcotest.(check int) "steps" 10 d.Swbench.Batch.steps
  | _ -> Alcotest.fail "job b should be simulate");
  Alcotest.(check string) "faults kept" "cpe_dead=5" c.Swbench.Batch.faults

let test_batch_parse_rejects () =
  let rejects name text =
    Alcotest.(check bool) name true
      (try
         ignore (Swbench.Batch.parse_manifest text);
         false
       with Invalid_argument _ -> true)
  in
  rejects "missing kind" "name=x atoms=100\n";
  rejects "unknown kind" "kind=frobnicate\n";
  rejects "unknown key" "kind=measure what=ever\n";
  rejects "bad int" "kind=measure atoms=lots\n";
  rejects "bad version" "kind=measure version=V9\n";
  rejects "bad plan" "kind=measure plan=sideways\n";
  rejects "bad fault spec" "kind=measure faults=zorp=1\n";
  rejects "bare token" "kind=measure standalone\n"

(* a job's fault plan is checked against the job's own platform *)
let test_batch_faults_per_platform () =
  Swarch.Platform.register
    (Swarch.Platform.of_string "name = batch-cpe128\ncpe_count = 128\n");
  let parse platform =
    Swbench.Batch.parse_manifest
      (Printf.sprintf "kind=measure platform=%s faults=cpe_dead=100\n" platform)
  in
  Alcotest.(check int) "accepted on 128 CPEs" 1 (List.length (parse "batch-cpe128"));
  match parse "sw26010" with
  | _ -> Alcotest.fail "cpe_dead=100 accepted on 64 CPEs"
  | exception Invalid_argument _ -> ()

let test_batch_run_serves_repeat () =
  let cache = Cache.create (Store.open_memory ()) in
  let kv = Kv.create ~ns:"batch" cache in
  let jobs =
    Swbench.Batch.parse_manifest
      "kind=measure name=first version=Cal atoms=600 n_cg=2\n\
       kind=measure name=other version=Ori atoms=600 n_cg=2\n\
       kind=measure name=again version=Cal atoms=600 n_cg=2\n"
  in
  Swbench.Common.set_measure_store (Some kv);
  let outcomes, wall_s =
    Fun.protect
      ~finally:(fun () -> Swbench.Common.set_measure_store None)
      (fun () -> Swbench.Batch.run ~kv jobs)
  in
  let served = List.map (fun o -> o.Swbench.Batch.served) outcomes in
  Alcotest.(check bool) "first computed" true
    (List.nth served 0 = Swbench.Common.Computed);
  Alcotest.(check bool) "repeat stored" true
    (List.nth served 2 = Swbench.Common.Stored);
  Alcotest.(check bool) "identical headline" true
    ((List.nth outcomes 0).Swbench.Batch.headline
    = (List.nth outcomes 2).Swbench.Batch.headline);
  (* the JSON report carries the store_* counters *)
  let module J = Swtrace.Json in
  match Swbench.Batch.json_report ~kv ~cache ~wall_s outcomes with
  | J.Obj fields ->
      Alcotest.(check bool) "jobs present" true (List.mem_assoc "jobs" fields);
      (match List.assoc "store" fields with
      | J.Obj store ->
          Alcotest.(check bool) "key_hits present" true
            (List.mem_assoc "key_hits" store)
      | _ -> Alcotest.fail "store section is not an object")
  | _ -> Alcotest.fail "report is not an object"

let suites =
  [
    ( "swstore.sha256",
      [
        Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "key shape" `Quick test_sha256_key_shape;
      ] );
    ( "swstore.chunk",
      [
        Alcotest.test_case "roundtrip" `Quick test_chunk_roundtrip;
        Alcotest.test_case "split" `Quick test_chunk_split;
        Alcotest.test_case "truncation fuzz" `Quick test_chunk_truncation_fuzz;
        Alcotest.test_case "hostile input" `Quick test_chunk_hostile;
      ] );
    ( "swstore.manifest",
      [
        Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
        Alcotest.test_case "truncation fuzz" `Quick
          test_manifest_truncation_fuzz;
        Alcotest.test_case "hostile input" `Quick test_manifest_hostile;
      ] );
    ( "swstore.store",
      [
        Alcotest.test_case "chunk roundtrip + dedup" `Quick
          test_store_chunk_roundtrip;
        Alcotest.test_case "missing chunk" `Quick test_store_missing_chunk;
        Alcotest.test_case "detects corruption" `Quick
          test_store_detects_corruption;
        Alcotest.test_case "rejects bad names" `Quick
          test_store_rejects_bad_names;
        Alcotest.test_case "directory backend" `Quick test_store_dir_backend;
        Alcotest.test_case "transient read faults retried" `Quick
          test_store_read_retries_transient;
        Alcotest.test_case "read retry exhaustion" `Quick
          test_store_read_exhaustion;
      ] );
    ( "swstore.cache",
      [
        Alcotest.test_case "hit/miss counting" `Quick
          test_cache_hit_miss_counting;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "evict + oversized" `Quick
          test_cache_evict_and_oversized;
        Alcotest.test_case "propagates corruption" `Quick
          test_cache_propagates_corruption;
      ] );
    ( "swstore.kv",
      [
        Alcotest.test_case "roundtrip" `Quick test_kv_roundtrip;
        Alcotest.test_case "damaged store raises" `Quick
          test_kv_damaged_store_raises;
        Alcotest.test_case "persists across reopen" `Quick
          test_kv_persists_across_reopen;
      ] );
    ( "swstore.objects",
      [
        Alcotest.test_case "checkpoint roundtrip" `Quick
          test_checkpoint_object_roundtrip;
        Alcotest.test_case "checkpoint corruption" `Quick
          test_checkpoint_object_corruption;
        Alcotest.test_case "checkpoint kind mismatch" `Quick
          test_checkpoint_kind_mismatch;
      ] );
    ( "swstore.measure",
      [
        Alcotest.test_case "plan result roundtrip" `Quick
          test_plan_result_roundtrip;
        Alcotest.test_case "plan result hostile" `Quick
          test_plan_result_hostile;
        Alcotest.test_case "measurement roundtrip" `Quick
          test_measurement_roundtrip;
        Alcotest.test_case "store serves repeats" `Quick
          test_measure_store_serves_repeats;
        Alcotest.test_case "memo keyed by faults" `Quick
          test_measure_memo_keyed_by_faults;
      ] );
    ( "swstore.restart",
      [
        Alcotest.test_case "store restart bit-identical" `Quick
          test_restart_from_store_bit_identical;
      ] );
    ( "swstore.batch",
      [
        Alcotest.test_case "parse" `Quick test_batch_parse;
        Alcotest.test_case "parse rejects" `Quick test_batch_parse_rejects;
        Alcotest.test_case "fault plan checked per job platform" `Quick
          test_batch_faults_per_platform;
        Alcotest.test_case "repeat served from store" `Quick
          test_batch_run_serves_repeat;
      ] );
  ]
