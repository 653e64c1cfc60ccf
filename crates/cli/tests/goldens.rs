//! End-to-end goldens of the `locmap` binary: the four healing traces, the
//! two overload reports, the four static-verification arms, the two
//! fault-scenario comparisons, the mappings and heatmaps `map` and `heat`
//! print, and the platform summary with its MAC table, byte for byte. Each
//! run is deterministic, so any change in the recovery policy, the
//! admission ladder, the circuit breaker, the verifier's findings, the
//! degraded-mode mapper or the options the mapper runs with shows up as a
//! diff here.

use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    let path: PathBuf = [root, "..", "..", "tests", "golden", name].iter().collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Runs `locmap args…` and checks it exits 0 with exactly the golden's text.
fn assert_matches_golden(args: &[&str], name: &str) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_locmap")).args(args).output().expect("locmap runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "locmap {args:?} failed:\n{stderr}");
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let want = golden(name);
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "locmap {args:?} differs from tests/golden/{name} \
             (first differing line: {line:?})\n--- got\n{got}--- want\n{want}"
        );
    }
}

fn heal(app: &str, timeline: &str, seed: &str) {
    assert_matches_golden(
        &["heal", "--app", app, "--scale", "0.3", "--timeline", timeline, "--seed", seed],
        &format!("heal.{app}.{timeline}.txt"),
    );
}

#[test]
fn heal_mxm_transient_matches_golden() {
    heal("mxm", "transient", "7");
}

#[test]
fn heal_mxm_persistent_matches_golden() {
    heal("mxm", "persistent", "7");
}

#[test]
fn heal_fft_transient_matches_golden() {
    heal("fft", "transient", "11");
}

#[test]
fn heal_fft_persistent_matches_golden() {
    heal("fft", "persistent", "11");
}

/// `--require-shed 1` fails the run unless some arm above 1x sheds.
const OVERLOAD: [&str; 8] =
    ["--scale", "0.3", "--arrivals", "120", "--load", "1,3,10", "--require-shed", "1"];

#[test]
fn overload_shared_matches_golden() {
    let args = [&["overload", "--apps", "mxm,swim"][..], &OVERLOAD].concat();
    assert_matches_golden(&args, "overload.mxm-swim.shared.txt");
}

/// The private arm reaches queue depth 37 and trips the breaker once, so
/// it depends on the queue capacity, both depth thresholds and the
/// breaker's strike threshold, window and cool-down. (The half-open probe
/// count is pinned by the admission and session unit tests.)
#[test]
fn overload_private_matches_golden() {
    let private = ["overload", "--apps", "fft,jacobi-3d", "--llc", "private"];
    let args = [&private[..], &OVERLOAD].concat();
    assert_matches_golden(&args, "overload.fft-jacobi-3d.private.txt");
}

/// `map` prints what `run` executes: the mapping of the builders' default
/// options, which are `run`'s. mxm is regular on the shared LLC (MAI, CAI
/// and α per set); moldyn is irregular, mapped on the private LLC from its
/// own index arrays.
#[test]
fn map_mxm_shared_matches_golden() {
    assert_matches_golden(&["map", "--app", "mxm", "--scale", "0.3"], "map.mxm.shared.txt");
}

#[test]
fn map_moldyn_private_matches_golden() {
    let args = ["map", "--app", "moldyn", "--llc", "private", "--scale", "0.3"];
    assert_matches_golden(&args, "map.moldyn.private.txt");
}

#[test]
fn heat_mxm_private_matches_golden() {
    let args = ["heat", "--app", "mxm", "--llc", "private", "--scale", "0.3"];
    assert_matches_golden(&args, "heat.mxm.private.txt");
}

/// `platform` is the only report that prints a healthy machine's MAC
/// table (Figure 6a).
#[test]
fn platform_shared_matches_golden() {
    assert_matches_golden(&["platform", "--llc", "shared"], "platform.shared.txt");
}

/// `verify` exits nonzero on any Deny-level finding; each golden pins the
/// fault plan an arm draws and the findings over all 29 nests.
fn verify(args: &[&str], name: &str) {
    let args = [&["verify", "--scale", "0.3"][..], args].concat();
    assert_matches_golden(&args, &format!("verify.{name}.txt"));
}

#[test]
fn verify_shared_matches_golden() {
    verify(&[], "shared");
}

#[test]
fn verify_dead_mc_matches_golden() {
    verify(&["--dead-mcs", "1", "--seed", "7"], "shared.dead-mc");
}

#[test]
fn verify_private_dead_routers_and_links_matches_golden() {
    let args = ["--llc", "private", "--dead-routers", "2", "--dead-links", "3", "--seed", "11"];
    verify(&args, "private.dead-routers-links");
}

#[test]
fn verify_dead_banks_and_mc_matches_golden() {
    verify(&["--dead-banks", "2", "--dead-mcs", "1", "--seed", "13"], "shared.dead-banks-mc");
}

/// `faults` compares fault-free, degraded-aware and fault-oblivious runs
/// under one seed's plan. The dead-MC arm is CI's smoke run; the
/// link-and-router arm runs the connectivity check and the routing detour
/// end to end. Its aware run is slower than the oblivious one: a region
/// with three live cores still takes a full region's share of sets.
fn faults(args: &[&str], name: &str) {
    let args = [&["faults", "--app", "mxm", "--seed", "7", "--scale", "0.3"][..], args].concat();
    assert_matches_golden(&args, &format!("faults.mxm.{name}.txt"));
}

#[test]
fn faults_private_dead_mc_matches_golden() {
    faults(&["--llc", "private", "--dead-mcs", "1"], "private.dead-mc");
}

#[test]
fn faults_shared_dead_links_and_router_matches_golden() {
    faults(&["--llc", "shared", "--dead-links", "2", "--dead-routers", "1"], "shared.dead-links-router");
}
