//! Throughput harness for the batch-mapping engine (`locmap batch`).
//!
//! Builds a repeated-kernel workload — every nest of a set of benchmarks,
//! submitted several times over, the request stream a mapping service
//! actually sees — and drives it three ways: a serial
//! [`Compiler::map_nest`] loop (the pre-session reference), a fresh
//! 1-worker [`MappingSession`], and a fresh session at the requested
//! worker count. All three must agree bit for bit; the report carries
//! mappings/sec, warm-cache hit rate, the speedup over the serial loop
//! (memoization plus parallelism) and the pure thread-scaling factor.

use locmap_core::{Compiler, LlcOrg, MapRequest, MappingSession, Platform};
use locmap_loopir::NestId;
use locmap_noc::LocmapError;
use locmap_verify::{VerifyConfig, VerifySession};
use locmap_workloads::{Scale, Workload};
use std::time::Instant;

/// The stencil-class regular benchmarks (the CI smoke suite): dense
/// multi-nest kernels whose mappings are fully computable at compile time,
/// so batch throughput measures the mapper, not the inspector.
pub const STENCIL_SUITE: &[&str] = &["jacobi-3d", "lulesh", "minighost", "swim", "diff"];

/// Configuration of one throughput measurement.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Benchmark names (each contributes one request per nest).
    pub apps: Vec<String>,
    /// Input-size factor for the workload builders.
    pub scale: Scale,
    /// LLC organization of the 6×6 default platform.
    pub llc: LlcOrg,
    /// Worker threads for the measured (parallel) run.
    pub threads: usize,
    /// How many times the whole kernel set is resubmitted (≥ 1); repeats
    /// after the first are answered by the memo cache.
    pub repeats: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            apps: STENCIL_SUITE.iter().map(|s| s.to_string()).collect(),
            scale: Scale::default(),
            llc: LlcOrg::SharedSNuca,
            threads: 4,
            repeats: 4,
        }
    }
}

/// The result of one throughput measurement.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Worker threads used by the measured run.
    pub threads: usize,
    /// Total requests submitted (kernels × repeats).
    pub requests: usize,
    /// Distinct kernels (cold mappings) in the stream.
    pub unique_kernels: usize,
    /// Wall-clock seconds of the serial reference: one
    /// [`Compiler::map_nest`] call per request, no session, no cache —
    /// the pre-session API a caller would otherwise loop over.
    pub uncached_secs: f64,
    /// Wall-clock seconds of a fresh 1-worker session over the stream.
    pub serial_secs: f64,
    /// Wall-clock seconds of the measured (`threads`-worker) run.
    pub parallel_secs: f64,
    /// Requests answered per second by the measured run.
    pub mappings_per_sec: f64,
    /// Mapping-cache hit rate of the measured run.
    pub hit_rate: f64,
    /// `uncached_secs / parallel_secs` — the session's throughput win over
    /// the serial `map_nest` loop (memoization plus parallelism).
    pub speedup: f64,
    /// `serial_secs / parallel_secs` — thread scaling alone, cache held
    /// equal. Bounded by the machine's core count, not the engine.
    pub scaling: f64,
    /// Wall-clock seconds spent verifying the parallel responses with
    /// [`VerifyConfig::default`] ([`locmap_verify`]), so the report can
    /// state the verification overhead relative to mapping throughput.
    pub verify_secs: f64,
    /// Deny-level diagnostics the verifier found (always 0 for a healthy
    /// engine).
    pub verify_denies: usize,
    /// The verifier's report of what it found; empty when it found
    /// nothing.
    pub verify_findings: String,
}

impl BatchReport {
    /// Prints the report as an aligned block.
    pub fn print(&self) {
        println!("batch throughput ({} worker(s))", self.threads);
        println!("  requests            {:>10}  ({} unique kernels)", self.requests, self.unique_kernels);
        println!("  serial map_nest     {:>10.3} s  (no session, no cache)", self.uncached_secs);
        println!("  session, 1 worker   {:>10.3} s", self.serial_secs);
        println!("  session, {} worker(s) {:>8.3} s", self.threads, self.parallel_secs);
        println!("  mappings/sec        {:>10.1}", self.mappings_per_sec);
        println!("  cache hit rate      {:>9.1} %", 100.0 * self.hit_rate);
        println!("  speedup vs serial   {:>10.2} x", self.speedup);
        println!("  thread scaling      {:>10.2} x", self.scaling);
        println!(
            "  verify pass         {:>10.3} s  ({:.1}% of mapping time, {} deny)",
            self.verify_secs,
            100.0 * self.verify_secs / self.parallel_secs.max(1e-9),
            self.verify_denies
        );
        if !self.verify_findings.is_empty() {
            println!("{}", self.verify_findings);
        }
    }
}

/// Runs the repeated-kernel workload through the serial `map_nest` loop,
/// a 1-worker session, and a `cfg.threads`-worker session, checks all
/// three agree bit for bit, and reports throughput.
///
/// Returns [`LocmapError::InvalidConfig`] for unknown benchmark names or a
/// zero repeat count.
///
/// # Panics
///
/// Panics if the parallel responses differ from the serial ones — that
/// would falsify the engine's determinism guarantee and is a bug, not an
/// input error.
pub fn run_throughput(cfg: &BatchConfig) -> Result<BatchReport, LocmapError> {
    if cfg.repeats == 0 {
        return Err(LocmapError::InvalidConfig("repeats must be at least 1".into()));
    }
    for name in &cfg.apps {
        if !locmap_workloads::names().contains(&name.as_str()) {
            return Err(LocmapError::InvalidConfig(format!("unknown benchmark {name:?}")));
        }
    }

    // Every builder maps with its default options: the paper's, for the
    // simulator's default machine.
    let platform = Platform::paper_default_with(cfg.llc);
    let workloads: Vec<Workload> =
        cfg.apps.iter().map(|n| locmap_workloads::build(n, cfg.scale)).collect();

    // One request per (app, nest); the whole set resubmitted `repeats`
    // times so only the first round misses the cache.
    let kernels: Vec<(&Workload, NestId)> = workloads
        .iter()
        .flat_map(|w| w.program.nest_ids().map(move |id| (w, id)))
        .collect();
    let requests: Vec<MapRequest<'_>> = (0..cfg.repeats)
        .flat_map(|_| {
            kernels.iter().map(|(w, id)| MapRequest { program: &w.program, nest: *id, data: &w.data })
        })
        .collect();

    // Reference: the pre-session serial path, one full map_nest per
    // request with nothing memoized between them.
    let compiler = Compiler::builder(platform.clone()).build()?;
    let t0 = Instant::now();
    let uncached: Vec<_> =
        requests.iter().map(|r| compiler.map_nest(r.program, r.nest, r.data)).collect();
    let uncached_secs = t0.elapsed().as_secs_f64();

    let serial_session = MappingSession::builder(platform.clone()).threads(1).build()?;
    let t1 = Instant::now();
    let serial = serial_session.map_batch(&requests);
    let serial_secs = t1.elapsed().as_secs_f64();

    let parallel_session = MappingSession::builder(platform).threads(cfg.threads).build()?;
    let t2 = Instant::now();
    let parallel = parallel_session.map_batch(&requests);
    let parallel_secs = t2.elapsed().as_secs_f64();

    for (i, (u, (s, p))) in uncached.iter().zip(serial.iter().zip(&parallel)).enumerate() {
        assert_eq!(u, &s.mapping, "request {i}: 1-worker session diverged from serial map_nest");
        assert_eq!(
            s.mapping, p.mapping,
            "request {i}: parallel mapping diverged from the serial reference"
        );
    }

    // Post-batch verification: the session's audit hook over the exact
    // responses just produced, timed separately.
    let t3 = Instant::now();
    let sink = parallel_session.verify_batch(&requests, &parallel, &VerifyConfig::default());
    let verify_secs = t3.elapsed().as_secs_f64();

    let stats = parallel_session.cache_stats().mappings;
    Ok(BatchReport {
        threads: cfg.threads,
        requests: requests.len(),
        unique_kernels: kernels.len(),
        uncached_secs,
        serial_secs,
        parallel_secs,
        mappings_per_sec: requests.len() as f64 / parallel_secs.max(1e-9),
        hit_rate: stats.hit_rate(),
        speedup: uncached_secs / parallel_secs.max(1e-9),
        scaling: serial_secs / parallel_secs.max(1e-9),
        verify_secs,
        verify_denies: sink.deny_count(),
        verify_findings: if sink.diagnostics().is_empty() { String::new() } else { sink.report() },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_report_is_consistent() {
        let cfg = BatchConfig {
            apps: vec!["mxm".into(), "swim".into()],
            scale: Scale::new(0.2),
            threads: 2,
            repeats: 3,
            ..BatchConfig::default()
        };
        let r = run_throughput(&cfg).unwrap();
        assert_eq!(r.requests, r.unique_kernels * 3);
        assert!(r.mappings_per_sec > 0.0);
        // 2 of every 3 rounds are warm repeats.
        assert!(r.hit_rate > 0.5, "hit rate {} too low", r.hit_rate);
        // The memoized session must beat the uncached serial loop even on
        // one core; generous margin keeps this robust to timer noise.
        assert!(r.speedup > 1.2, "speedup {} too low", r.speedup);
    }

    #[test]
    fn verify_pass_is_timed_and_clean() {
        let cfg = BatchConfig {
            apps: vec!["mxm".into()],
            scale: Scale::new(0.2),
            threads: 2,
            repeats: 2,
            ..BatchConfig::default()
        };
        let r = run_throughput(&cfg).unwrap();
        assert_eq!(r.verify_denies, 0);
        assert!(r.verify_secs > 0.0);
    }

    #[test]
    fn unknown_app_is_a_typed_error() {
        let cfg = BatchConfig { apps: vec!["nope".into()], ..BatchConfig::default() };
        assert!(run_throughput(&cfg).is_err());
    }
}
