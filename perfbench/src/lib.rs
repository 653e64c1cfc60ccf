//! The locmap benchmark: paper-evaluation throughput, mapping-service
//! latency, and a traced per-layer breakdown.
//!
//! `locmap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The untraced run
//! (`--trace 0`) reports [`END_TO_END`]; the traced run (`--trace 1`)
//! reports [`PER_LAYER`] and writes every span to
//! `.bench_out/trace-<workload>-<seed>.json`. See `README.md` beside this
//! package for why each workload and metric is there.

#![warn(missing_docs)]

pub mod kernels;
pub mod mapper;
pub mod paper;
pub mod report;
pub mod rng;
pub mod service;
pub mod trace;

use report::{json_num, json_str, mean, median, Metric, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 2] = ["paper-private-irregular", "map-service"];

/// End-to-end metrics every workload reports untraced.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics every workload reports traced; a layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("loopir.enumerate_s", "s"),
    ("cme.estimate_s", "s"),
    ("core.affinity_s", "s"),
    ("core.assign_s", "s"),
    ("core.balance_s", "s"),
    ("core.place_s", "s"),
    ("core.default_mapping_s", "s"),
    ("core.map_other_s", "s"),
    ("core.inspector_s", "s"),
    ("core.session.hit_rate", "ratio"),
    ("core.session.cme_hit_rate", "ratio"),
    ("core.session.hit_ms_p50.regular", "ms"),
    ("core.session.hit_ms_p50.irregular", "ms"),
    ("core.session.miss_ms_p50", "ms"),
    ("verify.ms_per_mapping", "ms"),
    ("verify.denies", "count"),
    ("sim.run_nest_s", "s"),
    ("sim.accesses.base", "count"),
    ("sim.accesses.la", "count"),
    ("sim.ns_per_access", "ns"),
    ("bench.evaluate_other_s", "s"),
    ("noc.messages.base", "count"),
    ("noc.messages.la", "count"),
    ("noc.hops_per_msg.base", "hops"),
    ("noc.hops_per_msg.la", "hops"),
    ("noc.queue_cycles_per_msg.base", "cycles"),
    ("noc.queue_cycles_per_msg.la", "cycles"),
    ("noc.latency_cycles.base", "cycles"),
    ("noc.latency_cycles.la", "cycles"),
    ("noc.link_util.base", "ratio"),
    ("noc.link_util.la", "ratio"),
    ("noc.send_ns", "ns"),
    ("mem.l1.hit_rate.base", "ratio"),
    ("mem.l1.hit_rate.la", "ratio"),
    ("mem.llc.hit_rate.base", "ratio"),
    ("mem.llc.hit_rate.la", "ratio"),
    ("mem.dram.requests.base", "count"),
    ("mem.dram.requests.la", "count"),
    ("mem.dram.row_hit_frac.base", "ratio"),
    ("mem.dram.row_hit_frac.la", "ratio"),
    ("mem.dram.latency_cycles.base", "cycles"),
    ("mem.dram.latency_cycles.la", "cycles"),
    ("mem.dir.invalidations.base", "count"),
    ("mem.dir.invalidations.la", "count"),
    ("mem.cache.access_ns", "ns"),
    ("mem.dir.op_ns", "ns"),
    ("mem.dram.access_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values by name; only names in [`PER_LAYER`] are accepted.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let &(key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    /// The value of `name`, 0 if never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric in [`PER_LAYER`] order.
    pub fn to_metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: self.get(name),
                unit,
            })
            .collect()
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the timed section runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Input-size factor of the built benchmarks (1 is the paper's size;
    /// smaller values make a quick smoke run).
    pub scale: f64,
    /// Corrupt one checked output before the gates run, to show that a
    /// failed gate fails the run.
    pub sabotage: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--scale F] [--sabotage]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            sabotage: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--sabotage" {
                out.sabotage = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--scale" => out.scale = value.parse().map_err(|e| bad(&e))?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if !(0.1..=4.0).contains(&out.scale) {
            return Err(format!("--scale {} outside [0.1, 4]", out.scale));
        }
        if !(out.seconds >= 0.0 && out.seconds <= 120.0) {
            return Err(format!("--seconds {} outside [0, 120]", out.seconds));
        }
        Ok(out)
    }
}

/// Times a set-up in batches spread over the run.
///
/// A shared host's speed drifts over tens of seconds, and a set-up of a
/// fraction of a millisecond timed only once, before the timed section,
/// samples a single moment of that drift. So the run times one batch
/// before the timed section and one after every pass, and `setup_s` is the
/// mean of the batch medians.
#[derive(Debug)]
pub struct SetupTimer<F> {
    setup: F,
    batch_medians: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// A timer for `setup`.
    pub fn new(setup: F) -> Self {
        SetupTimer {
            setup,
            batch_medians: Vec::new(),
        }
    }

    /// Sets up at least five times and for at least `min_secs`; returns
    /// the last result.
    pub fn batch(&mut self, min_secs: f64) -> T {
        let start = Instant::now();
        let mut times = Vec::new();
        let mut last = None;
        while times.len() < 5 || start.elapsed().as_secs_f64() < min_secs {
            drop(last.take());
            let t0 = Instant::now();
            last = Some((self.setup)());
            times.push(t0.elapsed().as_secs_f64());
        }
        self.batch_medians.push(median(&times));
        last.expect("set up at least once")
    }

    /// Mean of the batch medians, in seconds.
    pub fn seconds(&self) -> f64 {
        mean(&self.batch_medians)
    }
}

/// Runs the workload `args` names. A traced run also returns its tracer.
pub fn run(args: &Args) -> (Outcome, Option<Tracer>) {
    let paper = match args.workload.as_str() {
        "paper-private-irregular" => Some(paper::PRIVATE_IRREGULAR),
        _ => None,
    };
    if !args.trace {
        let out = match &paper {
            Some(set) => paper::run_untraced(set, args),
            None => service::run_untraced(args),
        };
        return (out, None);
    }
    let mut t = Tracer::default();
    let (mut out, layers) = match &paper {
        Some(set) => paper::run_traced(set, args, &mut t),
        None => service::run_traced(args, &mut t),
    };
    out.metrics = layers.to_metrics();
    (out, Some(t))
}

/// The trace file: the run's identity, its per-layer metrics and spans.
pub fn trace_json(args: &Args, out: &Outcome, t: &Tracer) -> String {
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {}, \"metrics\": {{",
        json_str(&args.workload),
        args.seed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    let _ = write!(s, "}},\n\"spans\": {}}}\n", t.to_json());
    s
}
