//! Golden figure outputs.
//!
//! Runs the `figures` binary and compares its stdout with the committed
//! file: `table4` and `multiprog` in full, fft's `fig07`, `fig08`,
//! `fig15`, `fig16` and `resilience`, the `fig07` of moldyn, radix and
//! hpccg, and `table3` on fft and moldyn.
//! CI also diffs each on the release build. The last three are irregular,
//! so their goldens check the inspector's hand-off from `evaluate`'s
//! baseline arm to its scheme arm. They pin the three index-array
//! generators: moldyn's clustered indices, radix's blocked permutation
//! (whose scatter writes drive directory invalidations) and hpccg's
//! banded sparse-matrix columns.
//! fft's `fig08` runs `evaluate` on the shared S-NUCA LLC, so it pins the
//! CAI scan over line-interleaved banks and the 16-way compiler-side LLC
//! of the aggregate capacity.
//! fft's `fig16` runs the KNL platform in all three cluster modes, so it
//! pins the quadrant and SNC-4 address decoding. fft's `resilience` runs
//! static faults and fault timelines. `table3` counts each nest's sets and
//! measures the fraction the balancer moves, on a regular app and an
//! index-array one. `multiprog` co-runs several slots
//! through the simulator's one event loop, mapped with `paper_default`'s
//! options like every other figure.

use std::process::Command;

/// The stdout of `figures <name>`, run on the benchmarks `apps` (every
/// benchmark when `None`), with no other `LOCMAP_*` setting inherited.
fn figures(name: &str, apps: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.arg(name);
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("LOCMAP_")) {
        cmd.env_remove(key);
    }
    if let Some(apps) = apps {
        cmd.env("LOCMAP_APPS", apps);
    }
    let out = cmd.output().expect("the figures binary runs");
    assert!(
        out.status.success(),
        "figures {name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figures prints UTF-8")
}

/// Asserts that `figures <name>` on `apps` prints `golden`, naming the
/// first line that differs.
fn assert_golden(name: &str, apps: Option<&str>, golden: &str) {
    let got = figures(name, apps);
    let first_diff = got.lines().zip(golden.lines()).position(|(g, w)| g != w);
    if let Some(i) = first_diff {
        panic!(
            "figures {name} ({apps:?}) line {}:\n  got:  {}\n  want: {}",
            i + 1,
            got.lines().nth(i).unwrap_or_default(),
            golden.lines().nth(i).unwrap_or_default()
        );
    }
    assert_eq!(
        got, golden,
        "figures {name} ({apps:?}) differs in length or line endings"
    );
}

#[test]
fn table4_matches_golden() {
    assert_golden("table4", None, include_str!("../results/table4.txt"));
}

#[test]
fn fft_fig07_matches_golden() {
    assert_golden("fig07", Some("fft"), include_str!("golden/fig07.fft.txt"));
}

#[test]
fn fft_fig08_matches_golden() {
    assert_golden("fig08", Some("fft"), include_str!("golden/fig08.fft.txt"));
}

#[test]
fn fft_fig15_matches_golden() {
    assert_golden("fig15", Some("fft"), include_str!("golden/fig15.fft.txt"));
}

#[test]
fn fft_fig16_matches_golden() {
    assert_golden("fig16", Some("fft"), include_str!("golden/fig16.fft.txt"));
}

#[test]
fn fft_resilience_matches_golden() {
    assert_golden(
        "resilience",
        Some("fft"),
        include_str!("golden/resilience.fft.txt"),
    );
}

#[test]
fn fft_moldyn_table3_matches_golden() {
    assert_golden(
        "table3",
        Some("fft,moldyn"),
        include_str!("golden/table3.fft-moldyn.txt"),
    );
}

#[test]
fn multiprog_matches_golden() {
    assert_golden("multiprog", None, include_str!("../results/multiprog.txt"));
}

#[test]
fn moldyn_fig07_matches_golden() {
    assert_golden(
        "fig07",
        Some("moldyn"),
        include_str!("golden/fig07.moldyn.txt"),
    );
}

#[test]
fn radix_fig07_matches_golden() {
    assert_golden(
        "fig07",
        Some("radix"),
        include_str!("golden/fig07.radix.txt"),
    );
}

#[test]
fn hpccg_fig07_matches_golden() {
    assert_golden(
        "fig07",
        Some("hpccg"),
        include_str!("golden/fig07.hpccg.txt"),
    );
}
