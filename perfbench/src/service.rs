//! The `map-service` workload: a closed loop of clients sharing one
//! `MappingSession`, each waiting for its answer before sending the next
//! request. No simulation runs; the mapper and the memo cache do all the
//! work.

use crate::kernels::{self, KernelSizes};
use crate::mapper::{map_nest_phased, record_phases};
use crate::report::{mean, median, quantile, ratio, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Args, LayerMetrics, SetupTimer};
use locmap_bench::Experiment;
use locmap_core::{LlcOrg, MapRequest, MapResponse, MappingSession, NestMapping, SessionStats};
use locmap_loopir::NestId;
use locmap_verify::{VerifyConfig, VerifyMapping};
use locmap_workloads::{Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Client threads of the untraced run.
pub const CLIENTS: usize = 2;

/// Requests per stream: at 2000, twenty samples lie beyond p99.
pub const STREAM_LEN: usize = 2000;

/// One mappable nest of the pool.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Index into [`Pool::workloads`].
    pub workload: usize,
    /// The nest.
    pub nest: NestId,
    /// Whether it subscripts through index arrays.
    pub irregular: bool,
}

/// Every nest of the 21 benchmarks at two input sizes.
#[derive(Debug)]
pub struct Pool {
    /// The built benchmarks.
    pub workloads: Vec<Workload>,
    /// Their nests, in build order.
    pub kernels: Vec<Kernel>,
}

impl Pool {
    /// The request for kernel `k`; it carries the app's index arrays.
    pub fn request(&self, k: usize) -> MapRequest<'_> {
        let kernel = self.kernels[k];
        let w = &self.workloads[kernel.workload];
        MapRequest {
            program: &w.program,
            nest: kernel.nest,
            data: &w.data,
        }
    }

    /// Whether each kernel, in pool order, is irregular.
    pub fn irregular(&self) -> Vec<bool> {
        self.kernels.iter().map(|k| k.irregular).collect()
    }
}

/// The two input sizes of the pool: `scale` and half of it.
fn pool_scales(scale: f64) -> [f64; 2] {
    [scale, (scale * 0.5).max(0.1)]
}

/// Builds the pool at `scale` and at half of it.
pub fn build_pool(scale: f64, t: &mut Tracer) -> Pool {
    let mut workloads = Vec::new();
    for s in pool_scales(scale) {
        for name in locmap_workloads::names() {
            workloads.push(t.span("workloads.build", |_| {
                locmap_workloads::build(name, Scale::new(s))
            }));
        }
    }
    let kernels = workloads
        .iter()
        .enumerate()
        .flat_map(|(i, w)| {
            w.program.nest_ids().map(move |nest| Kernel {
                workload: i,
                nest,
                irregular: w.program.nest(nest).is_irregular(),
            })
        })
        .collect();
    Pool { workloads, kernels }
}

/// The popularity ranking of the kernels, hottest first.
///
/// Irregular and regular kernels alternate in proportion to their numbers,
/// each class in pool order, so the first `r` ranks hold
/// `floor(r * irregular / kernels)` irregular kernels. The ranking takes no
/// seed on purpose: a hit costs 10–40× more on a kernel whose app carries
/// index arrays, because the memo key hashes them all, so a seed-drawn
/// ranking would let the seed set how expensive the stream is.
pub fn popularity_ranking(irregular: &[bool]) -> Vec<usize> {
    let n = irregular.len();
    let n_irr = irregular.iter().filter(|&&i| i).count();
    let mut irr = (0..n).filter(|&k| irregular[k]);
    let mut reg = (0..n).filter(|&k| !irregular[k]);
    (0..n)
        .map(|rank| {
            if (rank + 1) * n_irr / n > rank * n_irr / n {
                irr.next()
            } else {
                reg.next()
            }
            .expect("each class fills exactly its own share of the ranks")
        })
        .collect()
}

/// The request stream: kernel indices, in an order drawn from `seed`.
///
/// The stream opens with one request per kernel in pool order: the cold
/// start, which misses on every kernel. The `len - kernels` requests after
/// it repeat kernels in Zipf(1) proportions over [`popularity_ranking`]:
/// rank `r` gets its share of `1 / r`, rounded so the shares add up. The
/// seed shuffles those repeats. So the set of requests, and with it the
/// work, is the same for every seed; the seed decides only their order.
/// The misses come first and in a fixed order because which of them run
/// at the same time sets the clients' peak memory.
pub fn request_stream(seed: u64, irregular: &[bool], len: usize) -> Vec<usize> {
    let kernels = irregular.len();
    assert!(
        kernels > 0 && len >= kernels,
        "the stream must cover every kernel"
    );
    let ranking = popularity_ranking(irregular);
    let repeats = len - kernels;
    let cumulative: Vec<f64> = (1..=kernels)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cumulative[kernels - 1];
    let upto = |rank: usize| (repeats as f64 * cumulative[rank] / total).round() as usize;
    let mut tail = Vec::with_capacity(repeats);
    for (rank, &k) in ranking.iter().enumerate() {
        let before = if rank == 0 { 0 } else { upto(rank - 1) };
        tail.extend(std::iter::repeat_n(k, upto(rank) - before));
    }
    Rng::new(seed).shuffle(&mut tail);
    (0..kernels).chain(tail).collect()
}

/// The share of `stream`'s requests that go to irregular kernels.
pub fn irregular_share(stream: &[usize], irregular: &[bool]) -> f64 {
    let n = stream.iter().filter(|&&k| irregular[k]).count();
    ratio(n as f64, stream.len() as f64)
}

fn session(exp: &Experiment) -> MappingSession {
    MappingSession::builder(exp.platform.clone())
        .options(exp.opts)
        .build()
        .expect("the paper platform builds")
}

/// The paper's shared-LLC platform and options, which the service maps for.
fn experiment() -> Experiment {
    Experiment::paper_default(LlcOrg::SharedSNuca)
}

/// One pass over the stream.
struct StreamRun {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    failed: u64,
    /// The session's mapping-table hit rate after the pass.
    hit_rate: f64,
}

/// Serves `stream` with `clients` closed-loop clients on a fresh session;
/// `ok(kernel, response)` gates each answer after its latency is taken.
fn serve(
    exp: &Experiment,
    pool: &Pool,
    stream: &[usize],
    clients: usize,
    ok: &(dyn Fn(usize, &MapResponse) -> bool + Sync),
) -> StreamRun {
    let session = session(exp);
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(stream.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&k) = stream.get(i) else { break };
                    let req = pool.request(k);
                    let sent = Instant::now();
                    let resp = catch_unwind(AssertUnwindSafe(|| session.map_one(&req)));
                    let ms = sent.elapsed().as_secs_f64() * 1e3;
                    local.push((ms, resp.is_ok_and(|r| ok(k, &r))));
                }
                results
                    .lock()
                    .expect("no client panics while holding the lock")
                    .extend(local);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let results = results.into_inner().expect("every client finished");
    StreamRun {
        wall_s,
        latencies_ms: results.iter().map(|r| r.0).collect(),
        failed: results.iter().filter(|r| !r.1).count() as u64,
        hit_rate: session.cache_stats().mappings.hit_rate(),
    }
}

/// The answer a serial `Compiler::map_nest` gives for every kernel, and
/// whether the verifier finds no Deny in it.
fn references(exp: &Experiment, pool: &Pool) -> Vec<(NestMapping, bool)> {
    let s = session(exp);
    let c = s.compiler();
    (0..pool.kernels.len())
        .map(|k| {
            let r = pool.request(k);
            let m = c.map_nest(r.program, r.nest, r.data);
            let clean = c
                .verify_mapping(r.program, r.nest, r.data, &m, &VerifyConfig::default())
                .deny_count()
                == 0;
            (m, clean)
        })
        .collect()
}

/// The untraced run: serve the stream with [`CLIENTS`] clients, on a fresh
/// session each pass, for `args.seconds`.
pub fn run_untraced(args: &Args) -> Outcome {
    let exp = experiment();
    let mut setup = SetupTimer::new(|| {
        let pool = build_pool(args.scale, &mut Tracer::disabled());
        drop(session(&exp));
        pool
    });
    let pool = setup.batch(0.5);
    let irregular = pool.irregular();
    let stream = request_stream(args.seed, &irregular, STREAM_LEN);
    let mut refs = references(&exp, &pool);
    if args.sabotage {
        refs[stream[0]].0.needs_inspector ^= true;
    }
    let ok = |k: usize, r: &MapResponse| refs[k].1 && r.mapping == refs[k].0;

    let mut out = Outcome::default();
    let (mut walls, mut p50s, mut p99s, mut hit_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Read after the first pass: later passes only fragment the clients'
    // heaps further, which would tie the figure to the pass count.
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let run = serve(&exp, &pool, &stream, CLIENTS, &ok);
        out.attempted += stream.len() as u64;
        out.failed += run.failed;
        walls.push(run.wall_s);
        eprintln!("pass {}: {:.4} s", walls.len(), run.wall_s);
        if walls.len() == 1 {
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        p50s.push(quantile(&run.latencies_ms, 0.5));
        p99s.push(quantile(&run.latencies_ms, 0.99));
        hit_rates.push(run.hit_rate);
        drop(setup.batch(0.1));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let wall_s = mean(&walls);
    out.push("setup_s", setup.seconds(), "s");
    out.push("wall_s", wall_s, "s");
    out.push("peak_rss_mb", peak_rss_mb, "MB");
    out.push_extra("mappings_per_s", stream.len() as f64 / wall_s, "1/s");
    out.push_extra("map_ms_p50", median(&p50s), "ms");
    out.push_extra("map_ms_p99", median(&p99s), "ms");
    out.push_extra("session_hit_rate", mean(&hit_rates), "ratio");
    out.push_extra(
        "irregular_request_share",
        irregular_share(&stream, &irregular),
        "ratio",
    );
    out.push_extra("requests_per_pass", stream.len() as f64, "count");
    out.push_extra("distinct_kernels", pool.kernels.len() as f64, "count");
    out.push_extra("timed_passes", walls.len() as f64, "count");
    out
}

/// One single-client pass of the traced run.
#[derive(Default)]
struct SingleClient {
    wall_s: f64,
    hit_ms_regular: Vec<f64>,
    hit_ms_irregular: Vec<f64>,
    miss_ms: Vec<f64>,
    /// The kernel and answer of every miss.
    missed: Vec<(usize, NestMapping)>,
    failed: u64,
    stats: SessionStats,
}

/// Serves `stream` with one client on a fresh session, one span per
/// `map_one`. A request is a miss when it raised the session's miss count.
fn serve_single(exp: &Experiment, pool: &Pool, stream: &[usize], t: &mut Tracer) -> SingleClient {
    let s = session(exp);
    let mut p = SingleClient::default();
    let t0 = Instant::now();
    for (i, &k) in stream.iter().enumerate() {
        t.set_owner(format!("req-{i}"));
        let req = pool.request(k);
        let before = s.cache_stats().mappings.misses;
        let sent = Instant::now();
        let resp = catch_unwind(AssertUnwindSafe(|| {
            t.span("core.session.map_one", |_| s.map_one(&req))
        }));
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let Ok(resp) = resp else {
            p.failed += 1;
            continue;
        };
        if s.cache_stats().mappings.misses > before {
            p.miss_ms.push(ms);
            p.missed.push((k, resp.mapping));
        } else if pool.kernels[k].irregular {
            p.hit_ms_irregular.push(ms);
        } else {
            p.hit_ms_regular.push(ms);
        }
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    p.stats = s.cache_stats();
    p
}

/// The traced run: one client, so each kernel's first request is exactly
/// its miss. Every miss is then re-mapped by `Compiler::map_nest` and by
/// the phase replay, and all three answers must agree.
pub fn run_traced(args: &Args, t: &mut Tracer) -> (Outcome, LayerMetrics) {
    let exp = experiment();
    let pool = build_pool(args.scale, t);
    let stream = request_stream(args.seed, &pool.irregular(), STREAM_LEN);
    let mut out = Outcome::default();

    // The same pass with spans off, before and after the traced one, for
    // `trace.overhead_pct`: the first pass also pays for a cold heap.
    let untraced = || serve_single(&exp, &pool, &stream, &mut Tracer::disabled()).wall_s;
    let before_s = untraced();
    let mut p = serve_single(&exp, &pool, &stream, t);
    let untraced_s = (before_s + untraced()) / 2.0;
    out.attempted += stream.len() as u64;
    out.failed += p.failed;

    if args.sabotage {
        if let Some((_, m)) = p.missed.first_mut() {
            m.needs_inspector ^= true;
        }
    }
    let s = session(&exp);
    let c = s.compiler();
    let (mut verified, mut denies) = (0usize, 0usize);
    for (k, answer) in &p.missed {
        let r = pool.request(*k);
        t.set_owner(format!("kernel-{k}"));
        let direct = t.span("core.map_nest", |_| c.map_nest(r.program, r.nest, r.data));
        let phased = map_nest_phased(c, r.program, r.nest, r.data, t);
        let sink = t.span("verify.mapping", |_| {
            c.verify_mapping(r.program, r.nest, r.data, answer, &VerifyConfig::default())
        });
        verified += 1;
        denies += sink.deny_count();
        out.attempted += 1;
        out.failed += u64::from(direct != *answer || phased != *answer || sink.deny_count() > 0);
    }

    let mut m = LayerMetrics::default();
    m.set("workloads.build_s", t.seconds("workloads.build"));
    record_phases(t, &mut m);
    m.set("core.session.hit_rate", p.stats.mappings.hit_rate());
    m.set("core.session.cme_hit_rate", p.stats.cme.hit_rate());
    m.set("core.session.hit_ms_p50.regular", median(&p.hit_ms_regular));
    m.set(
        "core.session.hit_ms_p50.irregular",
        median(&p.hit_ms_irregular),
    );
    m.set("core.session.miss_ms_p50", median(&p.miss_ms));
    m.set(
        "verify.ms_per_mapping",
        1e3 * ratio(t.seconds("verify.mapping"), verified as f64),
    );
    m.set("verify.denies", denies as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (p.wall_s - untraced_s) / untraced_s,
    );
    kernels::record(&mut m, &KernelSizes::default(), &exp);
    (out, m)
}
