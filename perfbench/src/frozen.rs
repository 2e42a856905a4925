//! Frozen simulated outputs of the default seed.
//!
//! For every simulation of [`crate::workloads::DEFAULT_SEED`], the
//! simulated end time and a digest of the registry delta the simulation
//! produced. A simulator-only change must reproduce them exactly; a
//! deliberate model change regenerates the table with
//! `--print-frozen --workload <name>` and says why in its description.

use tc_trace::Snapshot;

/// `(simulation name, simulated end time in ps, registry-delta digest)`.
pub const FROZEN: &[(&str, u64, u64)] = &[
    (
        "extoll_notif_sysmem/1048576",
        31716333078,
        0x83f80b04f764b00e,
    ),
    (
        "extoll_marker_devmem/1048576",
        31638148141,
        0xcfa854daa618af6a,
    ),
    ("ib_cq_gpumem/1048576", 17838791524, 0x18509ba405e51a2a),
    (
        "extoll_notif_sysmem/4194304",
        172351779834,
        0x0e649abbf1005ff7,
    ),
    (
        "extoll_marker_devmem/4194304",
        172287853837,
        0xf32675c94970d2c8,
    ),
    ("ib_cq_gpumem/4194304", 112336545714, 0x472b485d0fbb4fd8),
    ("extoll/eager/1024", 703914200, 0xaccb0fd45c76cf45),
    ("extoll/eager/4096", 2575701000, 0x238409b4ece0cd43),
    ("extoll/eager/16384", 10029224800, 0x67218b95888365f1),
    ("extoll/rndv/1024", 650746600, 0x9085b701fca2a4aa),
    ("extoll/rndv/4096", 1112378800, 0xc0a426be4dd10b47),
    ("extoll/rndv/16384", 2962072600, 0x11982c12748eb017),
    ("extoll/halo/1024", 414534400, 0x85a8d9c6cde9dc4c),
    ("extoll/halo/16384", 1615059200, 0xf18f4da1baaebbd0),
    ("extoll/allreduce/1024", 251193600, 0x213d452aa1fd8b6f),
    ("extoll/allreduce/16384", 970579200, 0xf562bb2907e07f0c),
    ("extoll/rpc/1024", 521210800, 0x1fea02cbdd11e17c),
    ("extoll/rpc/16384", 1721324600, 0xc18a02fb852264a3),
    ("ib/eager/1024", 662238000, 0x8d6024c565ccb20e),
    ("ib/eager/4096", 2588405000, 0xf3b41008121a2178),
    ("ib/eager/16384", 10238170000, 0xf6a9167165838e64),
    ("ib/rndv/1024", 145628400, 0x434ea856128ccade),
    ("ib/rndv/4096", 188774400, 0x7eea3535e6e086aa),
    ("ib/rndv/16384", 360512400, 0xe22ace201c36a657),
    ("ib/halo/1024", 259116800, 0x890fa5c6ab192351),
    ("ib/halo/16384", 602931200, 0x37751de8a51168fd),
    ("ib/allreduce/1024", 247344000, 0x5b6fde770c9f1513),
    ("ib/allreduce/16384", 426748800, 0xd0bccefcf9203785),
    ("ib/rpc/1024", 307416000, 0x9501a4f691c7c82b),
    ("ib/rpc/16384", 651230400, 0x7ab0be21c9663171),
    ("ring256x2/1024", 8092600418, 0xc7ede23dd29f5358),
    ("ring256x2/1024/serial", 8092600418, 0xc7ede23dd29f5358),
];

/// The frozen end time and digest of simulation `name`, if any.
pub fn lookup(name: &str) -> Option<(u64, u64)> {
    FROZEN
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, t, d)| (t, d))
}

/// FNV-1a digest of every counter, histogram and gauge in `snap`, in the
/// snapshot's name order.
pub fn digest(snap: &Snapshot) -> u64 {
    format!("{snap:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}
