//! The seed fixes every input: the same seed gives the same request
//! stream, another seed another stream, and the simulated counts never
//! change from run to run.

use locmap_perfbench::paper::{build_inputs, replay_evaluate, Side, PRIVATE_IRREGULAR};
use locmap_perfbench::service::{
    build_pool, irregular_share, popularity_ranking, request_stream, STREAM_LEN,
};
use locmap_perfbench::trace::Tracer;

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let irregular = build_pool(0.1, &mut Tracer::disabled()).irregular();
    let a = request_stream(7, &irregular, STREAM_LEN);
    assert_eq!(a, request_stream(7, &irregular, STREAM_LEN));
    assert_ne!(a, request_stream(8, &irregular, STREAM_LEN));
    let mut seen = vec![false; irregular.len()];
    a.iter().for_each(|&k| seen[k] = true);
    assert!(
        seen.iter().all(|&s| s),
        "every kernel is requested, so every pass misses alike"
    );
}

#[test]
fn popular_kernels_repeat() {
    let stream = request_stream(3, &[false; 58], STREAM_LEN);
    let mut counts = vec![0usize; 58];
    stream.iter().for_each(|&k| counts[k] += 1);
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top5: usize = counts[..5].iter().sum();
    assert!(
        top5 * 3 > STREAM_LEN,
        "the five hottest kernels take over a third of requests"
    );
}

/// The seed must not decide how costly the stream is: irregular kernels
/// are spread evenly over the ranking, every seed requests the same
/// multiset after the same cold start, and only the order differs.
#[test]
fn the_seed_does_not_pick_the_cost_mix() {
    let irregular = build_pool(0.1, &mut Tracer::disabled()).irregular();
    let n = irregular.len();
    let ranking = popularity_ranking(&irregular);
    let mut sorted = ranking.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    let n_irr = irregular.iter().filter(|&&i| i).count();
    assert!(0 < n_irr && n_irr < n);
    for r in 1..=n {
        let hot_irr = ranking[..r].iter().filter(|&&k| irregular[k]).count();
        assert_eq!(hot_irr, r * n_irr / n, "top {r} ranks");
    }
    let multiset = |seed| {
        let s = request_stream(seed, &irregular, STREAM_LEN);
        assert_eq!(s.len(), STREAM_LEN);
        assert_eq!(s[..n], (0..n).collect::<Vec<_>>()[..], "cold start");
        let mut s = s;
        s.sort_unstable();
        s
    };
    let first = multiset(1);
    for seed in 2..=5 {
        assert_eq!(multiset(seed), first, "seed {seed}");
    }
    let share = irregular_share(&request_stream(1, &irregular, STREAM_LEN), &irregular);
    assert!(share > 0.1 && share < 0.5, "irregular share {share}");
}

/// The paper workloads take no seed: they are fixed instances, so every
/// run, whatever its seed, must simulate the same counts.
fn simulate() -> (Vec<String>, Side, Side) {
    let inputs = build_inputs(&PRIVATE_IRREGULAR, 0.1, &mut Tracer::disabled());
    let (mut base, mut la) = (Side::default(), Side::default());
    let mut t = Tracer::disabled();
    let outcomes = inputs
        .apps
        .iter()
        .map(|w| {
            let o = replay_evaluate(w, &inputs.exp, &mut t, &mut base, &mut la).outcome;
            format!("{o:?}")
        })
        .collect();
    (outcomes, base, la)
}

#[test]
fn every_run_simulates_the_same_counts() {
    let first = simulate();
    assert_eq!(first, simulate());
    assert!(first.1.accesses > 0 && first.2.messages > 0);
    assert!(
        first.2.invalidations > 0,
        "radix's scattered writes invalidate sharers"
    );
}
