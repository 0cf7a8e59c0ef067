(** The machine description, as a first-class value.

    One record unifies everything the stack knows about a target
    machine: the core-group simulator parameters (CPE count, LDM
    capacity, SIMD width, the Table-2 DMA curve), the chip topology,
    the analytic comparison facts behind Table 4 / Figure 11 (chip
    memory bandwidth, effective kernel miss rate), and the interconnect
    link parameters that {!Swcomm} prices messages with.

    Platforms come from the built-in registry ({!sw26010}, the paper's
    machine and the default everywhere; {!sw26010_pro}, the follow-on
    processor with six core groups, 512-bit SIMD and 256 KB LDM) or
    from a custom key=value description file ({!of_string}/{!load}).
    Every layer above takes the platform explicitly; no module outside
    this library may hardcode a CPE count, LDM size or lane width. *)

type t = {
  name : string;  (** registry / CLI name, e.g. ["sw26010"] *)
  display : string;  (** human label for tables, e.g. ["SW26010"] *)
  cg_per_chip : int;  (** core groups on one chip *)
  cpe_count : int;  (** computing processing elements per core group *)
  cpe_freq_hz : float;  (** CPE clock (Hz) *)
  mpe_freq_hz : float;  (** MPE clock (Hz) *)
  ldm_bytes : int;  (** scratchpad (local device memory) per CPE *)
  simd_lanes : int;
      (** single-precision SIMD lanes (256-bit vectors = 4 lanes,
          512-bit = 8) *)
  cpe_flops_per_cycle : float;
      (** scalar floating-point issue width of one CPE *)
  mpe_flops_per_cycle : float;
      (** effective MPE issue width; the MPE is an out-of-order core
          with real caches, so its effective scalar throughput is
          higher than a CPE's *)
  dma_points : (int * float) array;
      (** measured (transfer size in bytes, bandwidth in B/s) curve;
          Table 2 of the paper *)
  gld_latency_s : float;  (** latency of one global load/store *)
  mpe_mem_bw : float;  (** MPE-side memory bandwidth (B/s) *)
  dma_channels : float;
      (** effective DMA concurrency: how many CPE transfers progress
          in parallel before the shared bus saturates *)
  chip_mem_bw : float;
      (** whole-chip memory bandwidth (B/s), the Table-4 figure *)
  kernel_miss_rate : float;
      (** effective last-level miss rate of the memory-bound kernel,
          the TTF model's input (Equations 3-4) *)
  net_mpi_latency_s : float;  (** per-message startup, MPI path (s) *)
  net_rdma_latency_s : float;  (** per-message startup, RDMA path (s) *)
  net_link_bw : float;  (** per-direction wire bandwidth (B/s) *)
  net_supernode : int;  (** ranks per supernode (full bisection inside) *)
  net_uplink_factor : float;
      (** wire-cost multiplier for traffic that leaves the supernode *)
}

(** The paper's machine: Sunway SW26010 as deployed in TaihuLight.
    Values come from the paper itself (1.45 GHz clock, 64 KB LDM, the
    Table-2 DMA bandwidth curve, the Table-4 chip figures) and from
    published SW26010 micro-benchmarks (gld/gst latency). *)
let sw26010 =
  {
    name = "sw26010";
    display = "SW26010";
    cg_per_chip = 4;
    cpe_count = 64;
    cpe_freq_hz = 1.45e9;
    mpe_freq_hz = 1.45e9;
    ldm_bytes = 64 * 1024;
    simd_lanes = 4;
    cpe_flops_per_cycle = 1.0;
    mpe_flops_per_cycle = 2.0;
    dma_points =
      [|
        (8, 0.99e9); (128, 15.77e9); (256, 28.88e9); (512, 28.98e9);
        (2048, 30.48e9);
      |];
    gld_latency_s = 1.2e-7;
    mpe_mem_bw = 8.0e9;
    dma_channels = 1.0;
    chip_mem_bw = 132e9;
    kernel_miss_rate = 0.04;
    net_mpi_latency_s = 4.0e-6;
    net_rdma_latency_s = 0.5e-6;
    net_link_bw = 4.0e9;
    net_supernode = 256;
    net_uplink_factor = 2.0;
  }

(** The follow-on processor (SW26010-Pro, as described in the O2ATH
    and OceanLight literature): six core groups per chip, 512-bit SIMD
    (8 single-precision lanes), 256 KB LDM per CPE, higher clocks, a
    roughly doubled DMA curve and a second DMA channel.  The point of
    carrying it here is headroom analysis (Ablation 10): the same
    kernels retile their caches and revectorize from this record
    alone. *)
let sw26010_pro =
  {
    name = "sw26010_pro";
    display = "SW26010-Pro";
    cg_per_chip = 6;
    cpe_count = 64;
    cpe_freq_hz = 2.25e9;
    mpe_freq_hz = 2.1e9;
    ldm_bytes = 256 * 1024;
    simd_lanes = 8;
    cpe_flops_per_cycle = 1.0;
    mpe_flops_per_cycle = 2.0;
    dma_points =
      [|
        (8, 2.0e9); (128, 32.0e9); (256, 51.2e9); (512, 56.0e9);
        (2048, 60.0e9);
      |];
    gld_latency_s = 1.0e-7;
    mpe_mem_bw = 16.0e9;
    dma_channels = 2.0;
    chip_mem_bw = 307.2e9;
    kernel_miss_rate = 0.03;
    net_mpi_latency_s = 3.0e-6;
    net_rdma_latency_s = 0.4e-6;
    net_link_bw = 8.0e9;
    net_supernode = 256;
    net_uplink_factor = 2.0;
  }

(** The default machine description used whenever none is given. *)
let default = sw26010

(** [peak_dma_bw t] is the plateau bandwidth of the DMA curve. *)
let peak_dma_bw t =
  let n = Array.length t.dma_points in
  if n = 0 then 0.0 else snd t.dma_points.(n - 1)

(** [chip_peak_flops t] is the single-precision peak of one chip in
    flop/s: core groups x (CPEs + 1 MPE) x lanes x 2 (FMA) x clock.
    For {!sw26010} this is the paper's 3.06 Tflops. *)
let chip_peak_flops t =
  float_of_int (t.cg_per_chip * (t.cpe_count + 1) * t.simd_lanes * 2)
  *. t.cpe_freq_hz

(** [validate t] checks internal consistency of a machine description
    and raises [Invalid_argument] if a field is nonsensical. *)
let validate t =
  if t.name = "" then invalid_arg "Platform: name must be non-empty";
  if t.cg_per_chip <= 0 then invalid_arg "Platform: cg_per_chip must be positive";
  if t.cpe_count <= 0 then invalid_arg "Platform: cpe_count must be positive";
  if t.ldm_bytes <= 0 then invalid_arg "Platform: ldm_bytes must be positive";
  if t.simd_lanes <= 0 then invalid_arg "Platform: simd_lanes must be positive";
  (* the vector kernels fold wide accumulators onto the 4-lane Fig 7
     transpose in at most one halving, so only these widths run *)
  if t.simd_lanes <> 4 && t.simd_lanes <> 8 then
    invalid_arg
      (Printf.sprintf "Platform: simd_lanes must be 4 or 8 (got %d)"
         t.simd_lanes);
  if t.cpe_freq_hz <= 0.0 then
    invalid_arg "Platform: cpe_freq_hz must be positive";
  if t.mpe_freq_hz <= 0.0 then
    invalid_arg "Platform: mpe_freq_hz must be positive";
  if Array.length t.dma_points = 0 then
    invalid_arg "Platform: dma_points must be non-empty";
  let sorted = ref true in
  Array.iteri
    (fun i (s, bw) ->
      if s <= 0 || bw <= 0.0 then invalid_arg "Platform: bad dma point";
      if i > 0 && fst t.dma_points.(i - 1) >= s then sorted := false)
    t.dma_points;
  if not !sorted then invalid_arg "Platform: dma_points must be size-sorted";
  if t.dma_channels <= 0.0 then
    invalid_arg "Platform: dma_channels must be positive";
  if t.mpe_mem_bw <= 0.0 then invalid_arg "Platform: mpe_mem_bw must be positive";
  if t.chip_mem_bw <= 0.0 then
    invalid_arg "Platform: chip_mem_bw must be positive";
  if t.kernel_miss_rate <= 0.0 || t.kernel_miss_rate > 1.0 then
    invalid_arg "Platform: kernel_miss_rate must be in (0, 1]";
  if t.net_link_bw <= 0.0 then invalid_arg "Platform: net_link_bw must be positive";
  if t.net_supernode <= 0 then
    invalid_arg "Platform: net_supernode must be positive"

(** Pretty-printer for a machine description. *)
let pp ppf t =
  Fmt.pf ppf
    "%s core group: %d CPEs at %.2f GHz, LDM %d KB, %d-lane SIMD, DMA peak \
     %.2f GB/s, gld latency %.0f ns"
    t.display t.cpe_count
    (t.cpe_freq_hz /. 1e9)
    (t.ldm_bytes / 1024)
    t.simd_lanes
    (peak_dma_bw t /. 1e9)
    (t.gld_latency_s *. 1e9)

(* --- registry --------------------------------------------------------- *)

(** The built-in platforms, default first. *)
let builtin = [ sw26010; sw26010_pro ]

let registered : (string, t) Hashtbl.t = Hashtbl.create 8

(** [register t] adds (or replaces) a platform in the registry under
    [t.name], validating it first. *)
let register t =
  validate t;
  Hashtbl.replace registered t.name t

(** [find name] looks a platform up: registered customs shadow
    built-ins. *)
let find name =
  match Hashtbl.find_opt registered name with
  | Some p -> Some p
  | None -> List.find_opt (fun p -> p.name = name) builtin

(** [names ()] lists every known platform name, built-ins first. *)
let names () =
  let b = List.map (fun p -> p.name) builtin in
  let r =
    Hashtbl.fold (fun n _ acc -> if List.mem n b then acc else n :: acc)
      registered []
  in
  b @ List.sort compare r

(* --- custom platform files -------------------------------------------- *)

(* One "key = value" assignment applied to the record under
   construction.  Raw SI fields accept the record field name verbatim;
   a few convenience spellings (ldm_kb, *_ghz, *_us, *_ns) save the
   exponents.  [dma_curve] is a comma-separated "size:bandwidth" list. *)
let apply_field t key value =
  let fl () =
    match float_of_string_opt value with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Platform: bad float for %s: %S" key value)
  in
  let int () =
    match int_of_string_opt value with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Platform: bad integer for %s: %S" key value)
  in
  match key with
  | "name" -> { t with name = value }
  | "display" -> { t with display = value }
  | "cg_per_chip" -> { t with cg_per_chip = int () }
  | "cpe_count" -> { t with cpe_count = int () }
  | "cpe_freq_hz" -> { t with cpe_freq_hz = fl () }
  | "cpe_freq_ghz" -> { t with cpe_freq_hz = fl () *. 1e9 }
  | "mpe_freq_hz" -> { t with mpe_freq_hz = fl () }
  | "mpe_freq_ghz" -> { t with mpe_freq_hz = fl () *. 1e9 }
  | "ldm_bytes" -> { t with ldm_bytes = int () }
  | "ldm_kb" -> { t with ldm_bytes = int () * 1024 }
  | "simd_lanes" -> { t with simd_lanes = int () }
  | "cpe_flops_per_cycle" -> { t with cpe_flops_per_cycle = fl () }
  | "mpe_flops_per_cycle" -> { t with mpe_flops_per_cycle = fl () }
  | "gld_latency_s" -> { t with gld_latency_s = fl () }
  | "gld_latency_ns" -> { t with gld_latency_s = fl () *. 1e-9 }
  | "mpe_mem_bw" -> { t with mpe_mem_bw = fl () }
  | "dma_channels" -> { t with dma_channels = fl () }
  | "chip_mem_bw" -> { t with chip_mem_bw = fl () }
  | "kernel_miss_rate" -> { t with kernel_miss_rate = fl () }
  | "net_mpi_latency_s" -> { t with net_mpi_latency_s = fl () }
  | "net_mpi_latency_us" -> { t with net_mpi_latency_s = fl () *. 1e-6 }
  | "net_rdma_latency_s" -> { t with net_rdma_latency_s = fl () }
  | "net_rdma_latency_us" -> { t with net_rdma_latency_s = fl () *. 1e-6 }
  | "net_link_bw" -> { t with net_link_bw = fl () }
  | "net_supernode" -> { t with net_supernode = int () }
  | "net_uplink_factor" -> { t with net_uplink_factor = fl () }
  | "dma_curve" ->
      let points =
        String.split_on_char ',' value
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map (fun pair ->
               match String.split_on_char ':' pair with
               | [ s; bw ] -> (
                   match
                     (int_of_string_opt (String.trim s),
                      float_of_string_opt (String.trim bw))
                   with
                   | Some s, Some bw -> (s, bw)
                   | _ ->
                       invalid_arg
                         (Printf.sprintf "Platform: bad dma_curve point %S" pair))
               | _ ->
                   invalid_arg
                     (Printf.sprintf "Platform: bad dma_curve point %S" pair))
      in
      { t with dma_points = Array.of_list points }
  | _ -> invalid_arg (Printf.sprintf "Platform: unknown field %S" key)

(** [of_string ?fallback_name s] parses a custom platform description:
    one [key = value] per line, [#] comments, blank lines ignored.  An
    optional [base = NAME] line (which must come first) starts from a
    registered platform instead of {!sw26010}; every other line
    overrides one field.  The result is validated and {e not}
    registered — call {!register} to make it findable by name. *)
let of_string ?(fallback_name = "custom") s =
  let lines = String.split_on_char '\n' s in
  let strip l =
    match String.index_opt l '#' with
    | Some i -> String.trim (String.sub l 0 i)
    | None -> String.trim l
  in
  let assigns =
    List.filter_map
      (fun l ->
        let l = strip l in
        if l = "" then None
        else
          match String.index_opt l '=' with
          | None ->
              invalid_arg
                (Printf.sprintf "Platform: expected key = value, got %S" l)
          | Some i ->
              Some
                ( String.trim (String.sub l 0 i),
                  String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
      lines
  in
  let base, rest =
    match assigns with
    | ("base", b) :: rest -> (
        match find b with
        | Some p -> (p, rest)
        | None -> invalid_arg (Printf.sprintf "Platform: unknown base %S" b))
    | rest -> (sw26010, rest)
  in
  let named = List.exists (fun (k, _) -> k = "name") rest in
  let t = List.fold_left (fun t (k, v) -> apply_field t k v) base rest in
  let t = if named then t else { t with name = fallback_name; display = fallback_name } in
  validate t;
  t

(** [load path] reads a custom platform file (see {!of_string}); the
    file's basename (without extension) is the fallback name. *)
let load path =
  let contents = In_channel.with_open_text path In_channel.input_all in
  let fallback_name = Filename.remove_extension (Filename.basename path) in
  of_string ~fallback_name contents

(** [resolve name] is the platform called [name], or — when no such
    platform is registered and [name] is an existing file — the custom
    platform loaded from it.  Raises [Invalid_argument] otherwise;
    this is the CLI's [--platform] semantics. *)
let resolve name =
  match find name with
  | Some p -> p
  | None ->
      if Sys.file_exists name then load name
      else
        invalid_arg
          (Printf.sprintf "Platform: unknown platform %S (known: %s)" name
             (String.concat ", " (names ())))
