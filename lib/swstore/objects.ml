(** Domain objects through the store: checkpoints.

    The swio serializer already defines the byte format (hex-float
    checkpoints); this module is the chunking layer — a checkpoint's
    byte stream is split into content-addressed chunks and described by
    one manifest, so identical checkpoints deduplicate to zero new
    bytes. *)

(* --- checkpoints ----------------------------------------------------- *)

(** [put_checkpoint cache ~name ck] files [ck] under [name]
    (overwriting — a checkpoint name is the mutable head of a
    protected run). *)
let put_checkpoint cache ~name (ck : Swio.Checkpoint.t) =
  let payload = Swio.Checkpoint.to_string ck in
  let chunks =
    List.map
      (fun piece -> (Cache.put cache piece, String.length piece))
      (Chunk.split payload)
  in
  let meta =
    [
      ("platform", if ck.Swio.Checkpoint.platform = "" then "-" else ck.Swio.Checkpoint.platform);
      ("step", string_of_int ck.Swio.Checkpoint.step);
      ("n_atoms", string_of_int ck.Swio.Checkpoint.n_atoms);
    ]
  in
  Store.put_manifest (Cache.store cache)
    (Manifest.v ~kind:"checkpoint" ~name ~meta chunks)

let assemble cache (m : Manifest.t) =
  let buf = Buffer.create (Manifest.total_bytes m) in
  List.iter
    (fun (key, size) ->
      let piece = Cache.get_exn cache key in
      if String.length piece <> size then
        Error.raise_corrupt
          (Error.Bad_header
             (Printf.sprintf "chunk %s: manifest size %d, payload %d" key size
                (String.length piece)));
      Buffer.add_string buf piece)
    m.Manifest.chunks;
  Buffer.contents buf

(** [get_checkpoint cache ~name] reassembles and parses the
    store-held checkpoint.  Raises {!Error.Corrupt} on a damaged or
    missing object and [Invalid_argument] if the reassembled bytes
    fail the hardened checkpoint parser. *)
let get_checkpoint cache ~name =
  let m = Store.get_manifest_exn (Cache.store cache) name in
  if m.Manifest.kind <> "checkpoint" then
    Error.raise_corrupt
      (Error.Bad_header (Printf.sprintf "%s is a %s, not a checkpoint" name m.Manifest.kind));
  Swio.Checkpoint.of_string (assemble cache m)
