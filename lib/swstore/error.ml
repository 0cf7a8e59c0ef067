(** Structured store errors.

    Every corruption the chunk/manifest parsers can detect maps to one
    constructor, so callers (and tests) can distinguish a truncated
    file from a hash mismatch without string-matching messages.  Reads
    {e fail loudly}: nothing in the store layer ever silently returns
    partial or unverified data. *)

type t =
  | Truncated of string  (** input ended inside the named structure *)
  | Bad_magic of string  (** first line is not the expected format tag *)
  | Bad_header of string  (** a header field is malformed *)
  | Oversized of int  (** declared payload length exceeds the cap *)
  | Hash_mismatch of { key : string; actual : string }
      (** payload does not hash to the key it is filed under *)
  | Missing of string  (** no chunk/manifest under that key/name *)
  | Io of string  (** the backing directory failed underneath us *)
  | Io_exhausted of { path : string; attempts : int; last : string }
      (** every read attempt (including backoff retries) failed; [last]
          is the final OS error *)

exception Corrupt of t
(** Raised by the [_exn] read paths; the payload pinpoints the
    corruption. *)

let to_string = function
  | Truncated what -> Printf.sprintf "truncated %s" what
  | Bad_magic line -> Printf.sprintf "bad magic %S" line
  | Bad_header msg -> Printf.sprintf "bad header: %s" msg
  | Oversized n -> Printf.sprintf "declared payload length %d exceeds cap" n
  | Hash_mismatch { key; actual } ->
      Printf.sprintf "hash mismatch: filed under %s, payload hashes to %s" key
        actual
  | Missing key -> Printf.sprintf "no object under %s" key
  | Io msg -> Printf.sprintf "store I/O: %s" msg
  | Io_exhausted { path; attempts; last } ->
      Printf.sprintf "store I/O on %s still failing after %d attempts: %s" path
        attempts last

(** [raise_corrupt e] raises {!Corrupt}; the [_exn] entry points of
    the store funnel through here. *)
let raise_corrupt e = raise (Corrupt e)

let () =
  Printexc.register_printer (function
    | Corrupt e -> Some (Printf.sprintf "Swstore.Error.Corrupt: %s" (to_string e))
    | _ -> None)
