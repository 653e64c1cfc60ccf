//! Host-time kernels for the simulator's components: the public
//! `Network::send`, `Cache::access`, `Directory` and `Dram::access` calls,
//! timed on fixed-seed streams sized to the traffic the workload produced.
//!
//! The engine calls these per simulated access, far too often to wrap each
//! call in a span, so their host cost is measured here instead.

use crate::LayerMetrics;
use locmap_bench::Experiment;
use locmap_mem::{Access, Cache, Directory, Dram, PhysAddr};
use locmap_noc::{MessageKind, Network, NodeId};
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// Streams are capped at this many operations to bound the run time.
pub const MAX_OPS: u64 = 1_000_000;

/// Fixed, so kernel timings compare across runs and seeds.
const KERNEL_SEED: u64 = 0x10c_4a9;

/// How much traffic the workload produced, summed over both sides.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelSizes {
    /// NoC messages.
    pub sends: u64,
    /// L1 lookups; every one also updates the directory.
    pub cache_accesses: u64,
    /// DRAM requests.
    pub dram_accesses: u64,
}

fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Times every kernel and records `noc.send_ns`, `mem.cache.access_ns`,
/// `mem.dir.op_ns` and `mem.dram.access_ns`.
pub fn record(m: &mut LayerMetrics, sizes: &KernelSizes, exp: &Experiment) {
    let cap = |n: u64| n.min(MAX_OPS) as usize;
    m.set("noc.send_ns", noc_send_ns(cap(sizes.sends), exp));
    m.set(
        "mem.cache.access_ns",
        cache_access_ns(cap(sizes.cache_accesses), exp),
    );
    m.set("mem.dir.op_ns", dir_op_ns(cap(sizes.cache_accesses), exp));
    m.set(
        "mem.dram.access_ns",
        dram_access_ns(cap(sizes.dram_accesses), exp),
    );
}

/// Random point-to-point messages of the four traffic kinds, injected
/// about two per cycle as 36 busy cores would.
fn noc_send_ns(n: usize, exp: &Experiment) -> f64 {
    let mesh = exp.platform.mesh;
    let nodes = mesh.node_count();
    let kinds = [
        MessageKind::LlcRequest,
        MessageKind::llc_response64(),
        MessageKind::MemRequest,
        MessageKind::mem_response64(),
    ];
    let mut rng = Rng::new(KERNEL_SEED);
    let msgs: Vec<(NodeId, NodeId, MessageKind)> = (0..n)
        .map(|_| {
            let src = rng.below(nodes);
            let dst = (src + 1 + rng.below(nodes - 1)) % nodes;
            (
                NodeId(src as u16),
                NodeId(dst as u16),
                kinds[rng.below(kinds.len())],
            )
        })
        .collect();
    let mut net = Network::new(exp.sim.noc, mesh);
    ns_per_op(n, || {
        for (i, &(src, dst, kind)) in msgs.iter().enumerate() {
            black_box(net.send(i as u64 / 2, src, dst, kind));
        }
    })
}

/// An L1 stream: three quarters of the lookups go to a hot half-cache
/// working set, the rest scatter over sixteen times the capacity; 30%
/// are writes.
fn cache_access_ns(n: usize, exp: &Experiment) -> f64 {
    let cfg = exp.sim.l1;
    let lines = cfg.size_bytes / cfg.line_bytes;
    let mut rng = Rng::new(KERNEL_SEED);
    let ops: Vec<(u64, Access)> = (0..n)
        .map(|_| {
            let span = if rng.unit() < 0.75 {
                lines / 2
            } else {
                lines * 16
            };
            let acc = if rng.unit() < 0.3 {
                Access::Write
            } else {
                Access::Read
            };
            (rng.next_u64() % span, acc)
        })
        .collect();
    let mut cache = Cache::new(cfg);
    ns_per_op(n, || {
        for &(line, acc) in &ops {
            black_box(cache.access(line, acc));
        }
    })
}

/// The directory work of one L1 access in the engine: record the reader,
/// and on a write find and drop the other sharers.
fn dir_op_ns(n: usize, exp: &Experiment) -> f64 {
    let cores = exp.platform.mesh.node_count();
    let mut rng = Rng::new(KERNEL_SEED);
    let ops: Vec<(u64, usize, bool)> = (0..n)
        .map(|_| (rng.next_u64() % 65_536, rng.below(cores), rng.unit() < 0.3))
        .collect();
    let mut dir = Directory::new(cores);
    ns_per_op(n, || {
        for &(line, core, write) in &ops {
            if write && dir.is_shared_beyond(line, core) {
                for s in dir.sharers_excluding(line, core) {
                    dir.remove_sharer(line, s);
                }
            }
            dir.add_sharer(line, core);
        }
        black_box(dir.tracked_lines());
    })
}

/// Random line fills over a 64 MiB footprint, about one every four cycles.
fn dram_access_ns(n: usize, exp: &Experiment) -> f64 {
    let map = &exp.platform.addr_map;
    let mut rng = Rng::new(KERNEL_SEED);
    let addrs: Vec<PhysAddr> = (0..n)
        .map(|_| PhysAddr((rng.next_u64() % (1 << 26)) & !63))
        .collect();
    let mut dram = Dram::new(exp.sim.dram, exp.platform.mc_count());
    ns_per_op(n, || {
        for (i, &pa) in addrs.iter().enumerate() {
            black_box(dram.access(4 * i as u64, map.mc_of(pa), pa, map));
        }
    })
}
