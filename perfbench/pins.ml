(** Pinned digests of the simulated outputs at the benchmark's own input
    sizes.  [table1-step] keys hold for every seed (its inputs come
    from the engine's fixed water seed); the other keys carry the
    default seed they were taken with. *)

let default_seed = 1

let table =
  [
    ("table1-step/Ori", "98617678b18bcf36c52fff6d3f7fb69d");
    ("table1-step/Cal", "dcf6de0542868317b9ca948bed8fd42c");
    ("table1-step/List", "e1efc56fb9844602e319bcfec2933d21");
    ("table1-step/Other", "9f405ba1a870762bea76727d5aeaabc2");
    ("kernel-sweep/seed1/Ori/serial", "5e3426e755e5c3768880aae2fbbcabb8");
    ("kernel-sweep/seed1/Ori/pipelined", "5e3426e755e5c3768880aae2fbbcabb8");
    ("kernel-sweep/seed1/Pkg/serial", "6169de749a46de01c5de53aa7a8da305");
    ("kernel-sweep/seed1/Pkg/pipelined", "7dd1eadd74c8504d05ca13ba21c480d3");
    ("kernel-sweep/seed1/Cache/serial", "83c9dcac67002a3563f39573e25c6b4f");
    ("kernel-sweep/seed1/Cache/pipelined", "46c56afe877e63ce29716cc67903a835");
    ("kernel-sweep/seed1/Vec/serial", "9887615c37b279248d6693bcd955790d");
    ("kernel-sweep/seed1/Vec/pipelined", "4a370c61f15d35de4fd5b0c02bbc037b");
    ("kernel-sweep/seed1/Mark/serial", "55b4335d6e4e9eb19c89c2e55afd17a0");
    ("kernel-sweep/seed1/Mark/pipelined", "f6ec6febc3548e79ce53075873fe2b10");
    ("kernel-sweep/seed1/RMA/serial", "9887615c37b279248d6693bcd955790d");
    ("kernel-sweep/seed1/RMA/pipelined", "4a370c61f15d35de4fd5b0c02bbc037b");
    ("kernel-sweep/seed1/RCA/serial", "7132808fdcf75a13f0610086f4b44558");
    ("kernel-sweep/seed1/RCA/pipelined", "a21881ecb2882b8ab04ef2d82aaa10de");
    ("kernel-sweep/seed1/USTC/serial", "094b482150fedb4511953d3fa56cdd6c");
    ("kernel-sweep/seed1/USTC/pipelined", "1f0dbb95e57ea3baeb08d942e3a48362");
    ("md-dynamics/seed1", "39bf208c73dd6effb75131351d898ca2");
  ]

(** [find key] is the pinned digest of op [key], if any. *)
let find key = List.assoc_opt key table
