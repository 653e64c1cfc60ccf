//! Open-loop overload harness for the admission-controlled serving path.
//!
//! [`run_overload`] measures the saturation service rate of a
//! [`MappingSession`] (mean work units one full CME + η-minimization
//! mapping costs) and then drives an open-loop arrival process at
//! configurable multiples of that rate — by default 1×, 3× and 10×. The
//! driver is a deterministic virtual-clock single-server queue:
//!
//! * arrivals are evenly spaced at `saturation / multiplier` work units
//!   and admitted through [`MappingSession::try_admit`], so backpressure
//!   ([`TryMapError::QueueFull`]) sheds exactly like the production path;
//! * admitted requests wait in a class-ordered `AdmissionQueue` and are
//!   served by [`MappingSession::serve`] under a per-request work budget,
//!   walking the quality ladder (full → cached → heuristic) the ticket's
//!   admission depth chose;
//! * a request whose remaining deadline cannot cover the worst-case cost
//!   of its quality rung is shed at dequeue instead of served late, so
//!   every request that *is* served finishes inside its deadline;
//! * service time is charged in the same work units
//!   [`locmap_noc::RunControl`] meters (`spent_units`), so the virtual
//!   clock and the budget enforcement measure the same thing.
//!
//! Each arm reports goodput (useful service fraction of server
//! capacity), shed rate split by cause, p50/p99 latency of admitted
//! requests, the quality-level mix, peak queue depth, and breaker trips.
//! Every served mapping is re-checked with `locmap-verify`: full-quality
//! and cached answers must be clean under the strict mapping profile,
//! and heuristic answers under the relaxed profile that demotes only the
//! knowingly-sacrificed η-minimality and balance codes to warnings.

use crate::Experiment;
use locmap_core::{
    AdmissionConfig, BreakerState, MapRequest, MappingSession, Priority, QualityLevel, TryMapError,
};
use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, NestId, Program};
use locmap_noc::{Budget, CancelToken, LocmapError, RunControl};
use locmap_verify::{VerifyConfig, VerifyMapping};
use locmap_workloads::Workload;
use std::collections::VecDeque;
use std::fmt;

/// One kernel of the request stream: a program, the nest to map, and its
/// index-array contents.
#[derive(Debug)]
struct Kernel {
    program: Program,
    nest: NestId,
    data: DataEnv,
}

impl Kernel {
    fn request(&self) -> MapRequest<'_> {
        MapRequest { program: &self.program, nest: self.nest, data: &self.data }
    }
}

/// Tunables of one overload experiment.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Offered requests per arm.
    pub arrivals: usize,
    /// Arrival-rate multiples of the measured saturation rate, one arm
    /// each.
    pub multipliers: Vec<f64>,
    /// Admission tuning of the serving session (queue capacity,
    /// degradation thresholds, breaker).
    pub admission: AdmissionConfig,
    /// Per-request work budget for the full-quality rung, as a multiple
    /// of the measured mean service cost. A kernel that blows it strikes
    /// the circuit breaker and falls down the ladder.
    pub budget_factor: f64,
    /// Relative deadline of every request, as a multiple of the measured
    /// mean service cost. Requests that cannot finish inside it are shed
    /// at dequeue.
    pub deadline_factor: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            arrivals: 120,
            multipliers: vec![1.0, 3.0, 10.0],
            admission: AdmissionConfig::default(),
            budget_factor: 2.0,
            deadline_factor: 4.0,
        }
    }
}

/// What happened at one arrival-rate multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmReport {
    /// Arrival-rate multiple of saturation this arm ran at.
    pub multiplier: f64,
    /// Requests offered.
    pub offered: usize,
    /// Requests served to completion (always inside their deadline).
    pub completed: usize,
    /// Requests shed at admission ([`TryMapError::QueueFull`]).
    pub shed_queue_full: usize,
    /// Requests shed at dequeue because the remaining deadline could not
    /// cover their worst-case service cost.
    pub shed_deadline: usize,
    /// Useful service units delivered per unit of server time (≤ 1).
    pub goodput: f64,
    /// Median latency of completed requests, in work units.
    pub p50_latency: u64,
    /// 99th-percentile latency of completed requests, in work units.
    pub p99_latency: u64,
    /// Worst latency of any completed request, in work units. The
    /// shed-at-dequeue rule guarantees it never exceeds
    /// [`ArmReport::relative_deadline`].
    pub max_latency: u64,
    /// The relative deadline every request ran under, in work units.
    pub relative_deadline: u64,
    /// Completed requests served at [`QualityLevel::Full`].
    pub served_full: usize,
    /// Completed requests served at [`QualityLevel::Cached`].
    pub served_cached: usize,
    /// Completed requests served at [`QualityLevel::Heuristic`].
    pub served_heuristic: usize,
    /// Peak admission-queue depth observed.
    pub max_depth: usize,
    /// Times the circuit breaker tripped open during the arm.
    pub breaker_trips: usize,
    /// Deny diagnostics across the verification of every served mapping
    /// (must be zero: shedding may drop requests, never correctness).
    pub verify_denies: usize,
}

impl ArmReport {
    /// Fraction of offered requests shed (either cause).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.shed_queue_full + self.shed_deadline) as f64 / self.offered as f64
    }
}

/// The full overload experiment: the measured saturation cost and one
/// [`ArmReport`] per multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Mean work units of one uncached full-quality mapping — the
    /// service cost that defines the saturation arrival rate.
    pub saturation_units: u64,
    /// Per-multiplier results, in [`OverloadConfig::multipliers`] order.
    pub arms: Vec<ArmReport>,
}

impl OverloadReport {
    /// Table rows for [`crate::print_table`]: one per arm.
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.arms
            .iter()
            .map(|a| {
                vec![
                    format!("{:.0}x", a.multiplier),
                    a.offered.to_string(),
                    a.completed.to_string(),
                    format!("{:.1}%", a.shed_rate() * 100.0),
                    format!("{}/{}", a.shed_queue_full, a.shed_deadline),
                    format!("{:.2}", a.goodput),
                    a.p50_latency.to_string(),
                    a.p99_latency.to_string(),
                    format!("{}/{}/{}", a.served_full, a.served_cached, a.served_heuristic),
                    a.max_depth.to_string(),
                    a.breaker_trips.to_string(),
                    a.verify_denies.to_string(),
                ]
            })
            .collect()
    }

    /// Header matching [`OverloadReport::rows`].
    pub fn header() -> &'static [&'static str] {
        &[
            "load",
            "offered",
            "done",
            "shed",
            "q/ddl",
            "goodput",
            "p50",
            "p99",
            "F/C/H",
            "depth",
            "trips",
            "denies",
        ]
    }
}

impl fmt::Display for OverloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "saturation service cost: {} work units/request", self.saturation_units)?;
        writeln!(f, "{}", OverloadReport::header().join("\t"))?;
        for row in self.rows() {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

/// Slack added to the full-rung budget when bounding worst-case service
/// cost: one estimator checkpoint interval of overshoot plus the O(sets)
/// heuristic fallback the ladder lands on after a budget blow.
const WORST_CASE_SLACK: u64 = locmap_cme::CHECKPOINT_INTERVAL + 256;

/// A cold kernel's working-set size: unique per arrival index so repeats
/// never hit the memo cache, with a mild spread so service cost varies.
fn cold_elems(i: usize) -> u64 {
    2048 + 8 * i as u64
}

/// Builds the `i`-th cold (cache-defeating) kernel: a two-array stream
/// nest whose unique size gives it a unique memo fingerprint.
fn cold_kernel(i: usize) -> Kernel {
    let elems = cold_elems(i);
    let mut p = Program::new(format!("cold{i}"));
    let a = p.add_array("A", 8, elems);
    let b = p.add_array("B", 8, elems);
    let mut nest = LoopNest::rectangular("k", &[elems as i64]);
    nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
    nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
    let nest = p.add_nest(nest);
    Kernel { program: p, nest, data: DataEnv::new() }
}

/// The hot set: every nest of every selected workload, requested
/// repeatedly so the cached rung has something to answer from.
fn hot_kernels(apps: &[Workload]) -> Vec<Kernel> {
    let mut out = Vec::new();
    for w in apps {
        for idx in 0..w.program.nests().len() {
            out.push(Kernel {
                program: w.program.clone(),
                nest: NestId(idx as u32),
                data: w.data.clone(),
            });
        }
    }
    out
}

/// Deterministic priority mix: a sprinkle of latency-critical and batch
/// requests among the normal ones.
fn priority_of(i: usize) -> Priority {
    match i % 7 {
        0 => Priority::High,
        1 | 4 => Priority::Low,
        _ => Priority::Normal,
    }
}

/// Measures the mean full-pipeline cost (in work units) of one uncached
/// mapping, probing the hot set plus a sample of cold kernels on a
/// throwaway session.
fn measure_saturation(
    exp: &Experiment,
    hot: &[Kernel],
    cold_sample: &[Kernel],
) -> Result<u64, LocmapError> {
    let session = MappingSession::builder(exp.platform.clone()).options(exp.opts).build()?;
    let mut total = 0u64;
    let mut count = 0u64;
    for k in hot.iter().chain(cold_sample) {
        let ctl = RunControl::unlimited();
        session.map_one_ctl(&k.request(), &ctl)?;
        total += ctl.spent_units();
        count += 1;
    }
    Ok((total / count.max(1)).max(1))
}

/// A request waiting between admission and service.
struct Pending<'s> {
    ticket: locmap_core::AdmitTicket<'s>,
    kernel: usize,
    arrival: u64,
    deadline: u64,
}

/// A multi-class FIFO: one queue per [`Priority`], dequeued highest class
/// first, FIFO within a class. It holds no bound of its own: every item
/// carries an [`AdmitTicket`](locmap_core::AdmitTicket), so the
/// session's admission gate already caps how many can wait.
#[derive(Debug, Clone)]
struct AdmissionQueue<T> {
    /// One FIFO per class, in [`Priority::ALL`] order.
    classes: [VecDeque<T>; 3],
}

impl<T> AdmissionQueue<T> {
    /// An empty queue.
    fn new() -> Self {
        AdmissionQueue { classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()] }
    }

    /// Enqueues `item` at the back of its class.
    fn push(&mut self, priority: Priority, item: T) {
        let class =
            Priority::ALL.iter().position(|&p| p == priority).expect("ALL lists every class");
        self.classes[class].push_back(item);
    }

    /// Dequeues the oldest item of the highest non-empty class.
    fn pop(&mut self) -> Option<(Priority, T)> {
        Priority::ALL
            .into_iter()
            .zip(&mut self.classes)
            .find_map(|(p, class)| class.pop_front().map(|item| (p, item)))
    }

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }
}

/// Worst-case service cost of a ticket's quality rung, used for the
/// shed-at-dequeue decision that keeps every served request inside its
/// deadline.
fn worst_case_cost(quality: QualityLevel, full_budget: u64) -> u64 {
    match quality {
        QualityLevel::Full => full_budget + WORST_CASE_SLACK,
        // The cached rung falls through to the heuristic on a miss.
        QualityLevel::Cached | QualityLevel::Heuristic => WORST_CASE_SLACK,
    }
}

/// Latency percentile over completed requests (nearest-rank on the
/// sorted sample).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs one open-loop arm at `multiplier` times the saturation rate.
fn run_arm(
    exp: &Experiment,
    cfg: &OverloadConfig,
    hot: &[Kernel],
    cold: &[Kernel],
    saturation: u64,
    multiplier: f64,
) -> Result<ArmReport, LocmapError> {
    let session = MappingSession::builder(exp.platform.clone())
        .options(exp.opts)
        .admission(cfg.admission)
        .build()?;
    let inter_arrival = ((saturation as f64 / multiplier).round() as u64).max(1);
    let full_budget = ((saturation as f64 * cfg.budget_factor).round() as u64).max(1);
    let relative_deadline = ((saturation as f64 * cfg.deadline_factor).round() as u64).max(1);

    let strict = VerifyConfig::mapping_only();
    let relaxed = VerifyConfig::fallback_mapping();

    let kernel_at = |i: usize| -> &Kernel {
        if i.is_multiple_of(3) && !hot.is_empty() {
            &hot[(i / 3) % hot.len()]
        } else {
            &cold[i]
        }
    };

    let mut queue: AdmissionQueue<Pending<'_>> = AdmissionQueue::new();
    let mut report = ArmReport {
        multiplier,
        offered: cfg.arrivals,
        completed: 0,
        shed_queue_full: 0,
        shed_deadline: 0,
        goodput: 0.0,
        p50_latency: 0,
        p99_latency: 0,
        max_latency: 0,
        relative_deadline,
        served_full: 0,
        served_cached: 0,
        served_heuristic: 0,
        max_depth: 0,
        breaker_trips: 0,
        verify_denies: 0,
    };
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.arrivals);
    let mut useful_units = 0u64;
    let mut arrived = 0usize;
    let mut server_free_at = 0u64;
    let last_arrival = inter_arrival * cfg.arrivals.saturating_sub(1) as u64;

    while arrived < cfg.arrivals || !queue.is_empty() {
        let next_arrival =
            if arrived < cfg.arrivals { Some(inter_arrival * arrived as u64) } else { None };

        // Arrivals are processed before any service that would start
        // after them, so admission depth reflects true occupancy.
        if let Some(t) = next_arrival {
            if queue.is_empty() || t <= server_free_at {
                let i = arrived;
                arrived += 1;
                let priority = priority_of(i);
                match session.try_admit(priority) {
                    Ok(ticket) => {
                        report.max_depth = report.max_depth.max(session.in_flight());
                        let deadline = t + relative_deadline;
                        queue.push(priority, Pending { ticket, kernel: i, arrival: t, deadline });
                    }
                    Err(TryMapError::QueueFull { .. }) => report.shed_queue_full += 1,
                    Err(e) => return Err(LocmapError::InvalidConfig(e.to_string())),
                }
                continue;
            }
        }

        let Some((_, pending)) = queue.pop() else { continue };
        let start = server_free_at.max(pending.arrival);
        // Shed-at-dequeue: never start work that cannot finish in time.
        if start + worst_case_cost(pending.ticket.quality(), full_budget) > pending.deadline {
            report.shed_deadline += 1;
            continue; // dropping `pending` releases the admission slot
        }

        let kernel = kernel_at(pending.kernel);
        let ctl = RunControl::new(CancelToken::new(), Budget::unlimited().with_work_units(full_budget));
        let before = session.breaker_state();
        let served = match session.serve(&pending.ticket, &kernel.request(), &ctl) {
            Ok(served) => served,
            Err(TryMapError::Mapping(e)) => return Err(e),
            Err(e) => return Err(LocmapError::InvalidConfig(e.to_string())),
        };
        if session.breaker_state() == BreakerState::Open && before != BreakerState::Open {
            report.breaker_trips += 1;
        }

        let sets = served.response.mapping.sets.len() as u64;
        let cost = match served.quality {
            QualityLevel::Full => ctl.spent_units(),
            QualityLevel::Cached => ctl.spent_units() + 1,
            QualityLevel::Heuristic => ctl.spent_units() + sets,
        }
        .max(1);
        server_free_at = start + cost;
        latencies.push(server_free_at - pending.arrival);
        useful_units += cost;
        report.completed += 1;
        match served.quality {
            QualityLevel::Full => report.served_full += 1,
            QualityLevel::Cached => report.served_cached += 1,
            QualityLevel::Heuristic => report.served_heuristic += 1,
        }

        // Shedding may drop requests, never correctness: every served
        // mapping must satisfy the verifier with zero deny diagnostics.
        let verify_cfg = if served.quality == QualityLevel::Heuristic { &relaxed } else { &strict };
        let sink = session.compiler().verify_mapping(
            &kernel.program,
            kernel.nest,
            &kernel.data,
            &served.response.mapping,
            verify_cfg,
        );
        report.verify_denies += sink.deny_count();
    }

    let duration = server_free_at.max(last_arrival).max(1);
    report.goodput = useful_units as f64 / duration as f64;
    latencies.sort_unstable();
    report.p50_latency = percentile(&latencies, 0.50);
    report.p99_latency = percentile(&latencies, 0.99);
    report.max_latency = latencies.last().copied().unwrap_or(0);
    Ok(report)
}

/// Runs the full overload experiment: measures saturation, then drives
/// one open-loop arm per configured multiplier.
pub fn run_overload(
    exp: &Experiment,
    apps: &[Workload],
    cfg: &OverloadConfig,
) -> Result<OverloadReport, LocmapError> {
    let hot = hot_kernels(apps);
    let cold: Vec<Kernel> = (0..cfg.arrivals).map(cold_kernel).collect();
    let sample_len = cold.len().min(8);
    let saturation = measure_saturation(exp, &hot, &cold[..sample_len])?;
    let mut arms = Vec::with_capacity(cfg.multipliers.len());
    for &m in &cfg.multipliers {
        arms.push(run_arm(exp, cfg, &hot, &cold, saturation, m)?);
    }
    Ok(OverloadReport { saturation_units: saturation, arms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::LlcOrg;
    use locmap_workloads::Scale;

    #[test]
    fn queue_orders_by_class_then_fifo() {
        let mut q = AdmissionQueue::new();
        q.push(Priority::Low, "l1");
        q.push(Priority::Normal, "n1");
        q.push(Priority::High, "h1");
        q.push(Priority::Normal, "n2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, ["h1", "n1", "n2", "l1"]);
    }

    fn test_setup() -> (Experiment, Vec<Workload>, OverloadConfig) {
        let exp = Experiment::paper_default(LlcOrg::Private);
        let apps = vec![
            locmap_workloads::build("mxm", Scale::new(0.3)),
            locmap_workloads::build("swim", Scale::new(0.3)),
        ];
        let cfg = OverloadConfig { arrivals: 90, ..OverloadConfig::default() };
        (exp, apps, cfg)
    }

    #[test]
    fn overload_report_is_deterministic() {
        let (exp, apps, mut cfg) = test_setup();
        cfg.arrivals = 30;
        cfg.multipliers = vec![1.0, 10.0];
        let a = run_overload(&exp, &apps, &cfg).unwrap();
        let b = run_overload(&exp, &apps, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn overload_arms_shed_degrade_and_stay_verified() {
        let (exp, apps, cfg) = test_setup();
        let report = run_overload(&exp, &apps, &cfg).unwrap();
        assert!(report.saturation_units > 0);
        let [baseline, three_x, ten_x] = &report.arms[..] else {
            panic!("expected three arms, got {}", report.arms.len());
        };

        // At saturation the ladder stays at full quality and nothing is
        // shed: the admission controller must not degrade a healthy
        // system.
        assert_eq!(baseline.shed_queue_full + baseline.shed_deadline, 0, "{report}");
        assert!(
            baseline.served_full * 2 > baseline.completed,
            "1x arm should serve mostly full quality\n{report}"
        );

        // Overload sheds instead of queueing without bound.
        assert!(three_x.shed_rate() > 0.0, "3x arm must shed\n{report}");
        assert!(ten_x.shed_rate() > three_x.shed_rate(), "shedding must grow with load\n{report}");
        assert!(
            ten_x.served_heuristic > 0,
            "10x arm must degrade some requests to the heuristic\n{report}"
        );

        // Queue depth stays bounded by the configured capacity.
        for arm in &report.arms {
            assert!(arm.max_depth <= cfg.admission.capacity, "{report}");
            assert!(arm.completed + arm.shed_queue_full + arm.shed_deadline == arm.offered);
            // Every admitted-and-served request finished inside its
            // deadline: overload is absorbed by shedding, not lateness.
            assert!(arm.max_latency <= arm.relative_deadline, "{report}");
            // Correctness is never shed: zero deny diagnostics.
            assert_eq!(arm.verify_denies, 0, "{report}");
        }

        // Admitted requests keep bounded latency: degradation, not
        // queueing delay, absorbs the overload.
        assert!(
            three_x.p99_latency <= 2 * baseline.p99_latency,
            "3x p99 {} vs 1x p99 {}\n{report}",
            three_x.p99_latency,
            baseline.p99_latency
        );
        assert!(
            ten_x.p99_latency <= 2 * baseline.p99_latency,
            "10x p99 {} vs 1x p99 {}\n{report}",
            ten_x.p99_latency,
            baseline.p99_latency
        );
    }
}
