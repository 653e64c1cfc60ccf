//! The 21 multi-threaded benchmarks of the PLDI'18 evaluation, rebuilt as
//! synthetic loop-nest workloads.
//!
//! The paper evaluates on Splash-2 (barnes, fmm, radiosity, raytrace,
//! volrend, water, cholesky, fft, lu, radix), CORAL/Mantevo (lulesh,
//! minighost, hpccg), SPEC OMP (swim, art, equake), and kernels
//! (jacobi-3d, mxm, nbf, moldyn, diff). We cannot ship those programs, so
//! each is modeled as a [`locmap_loopir::Program`] whose parallel nests
//! reproduce the benchmark's *access-pattern class* — dense streaming,
//! stencils, triangular factorizations, butterfly passes, or index-array
//! (irregular) access with a tuned locality profile — which is all the
//! mapping pass and the simulator observe.
//!
//! Table 3's per-benchmark properties (loop-nest count, array count,
//! iteration groups, fraction moved by balancing) are carried as metadata
//! so the `table3` harness can print the paper's columns next to measured
//! ones.
//!
//! # Example
//!
//! ```
//! use locmap_workloads::{build, names, Scale};
//!
//! assert_eq!(names().len(), 21);
//! let w = build("mxm", Scale::default());
//! assert!(!w.irregular);
//! assert!(w.program.nests().len() >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builders;
mod irregular;
mod regular;
mod spec;

pub use spec::{Scale, Table3Info, Workload};

/// The 21 benchmark names, in the paper's Table 3 / figure order.
pub fn names() -> &'static [&'static str] {
    &[
        "barnes", "fmm", "radiosity", "raytrace", "volrend", "water", "cholesky", "fft", "lu",
        "radix", "jacobi-3d", "lulesh", "minighost", "swim", "mxm", "art", "nbf", "hpccg",
        "equake", "moldyn", "diff",
    ]
}

/// Builds benchmark `name` at the given scale.
///
/// # Panics
///
/// Panics if `name` is not one of [`names`].
pub fn build(name: &str, scale: Scale) -> Workload {
    match name {
        "barnes" => irregular::barnes(scale),
        "fmm" => irregular::fmm(scale),
        "radiosity" => irregular::radiosity(scale),
        "raytrace" => irregular::raytrace(scale),
        "volrend" => irregular::volrend(scale),
        "water" => regular::water(scale),
        "cholesky" => regular::cholesky(scale),
        "fft" => regular::fft(scale),
        "lu" => regular::lu(scale),
        "radix" => irregular::radix(scale),
        "jacobi-3d" => regular::jacobi3d(scale),
        "lulesh" => regular::lulesh(scale),
        "minighost" => regular::minighost(scale),
        "swim" => regular::swim(scale),
        "mxm" => regular::mxm(scale),
        "art" => irregular::art(scale),
        "nbf" => irregular::nbf(scale),
        "hpccg" => irregular::hpccg(scale),
        "equake" => irregular::equake(scale),
        "moldyn" => irregular::moldyn(scale),
        "diff" => regular::diff(scale),
        other => panic!("unknown benchmark {other:?}; see locmap_workloads::names()"),
    }
}

/// Builds every benchmark at the given scale.
pub fn build_all(scale: Scale) -> Vec<Workload> {
    names().iter().map(|n| build(n, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::IterationSpace;

    #[test]
    fn all_21_build() {
        for w in build_all(Scale::default()) {
            assert!(!w.program.nests().is_empty(), "{} has no nests", w.name);
            assert!(w.program.footprint() > 0);
        }
    }

    #[test]
    fn irregular_flags_match_index_array_usage() {
        for w in build_all(Scale::default()) {
            let any_indirect = w.program.nests().iter().any(|n| n.is_irregular());
            assert_eq!(w.irregular, any_indirect, "{}", w.name);
        }
    }

    #[test]
    fn irregular_workloads_supply_index_data() {
        for w in build_all(Scale::default()) {
            for nest in w.program.nests() {
                for r in &nest.refs {
                    if let locmap_loopir::RefKind::Indirect { index_array, .. } = &r.kind {
                        assert!(w.data.has(*index_array), "{} missing index data", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn index_values_are_in_bounds() {
        // Resolve every access of every irregular nest: Program::resolve
        // panics (debug) on out-of-bounds, so a full sweep is the check.
        for w in build_all(Scale::default()) {
            if !w.irregular {
                continue;
            }
            for nest in w.program.nests() {
                let space = IterationSpace::enumerate(nest, &w.program.params());
                for iv in space.iter().step_by(7) {
                    for r in &nest.refs {
                        let _ = w.program.resolve(r, iv, &w.data);
                    }
                }
            }
        }
    }

    #[test]
    fn workload_sizes_are_simulation_friendly() {
        for w in build_all(Scale::default()) {
            let total: u64 = w
                .program
                .nests()
                .iter()
                .map(|n| n.iteration_count(&w.program.params()) * n.refs.len() as u64)
                .sum();
            assert!(total > 20_000, "{} too small ({total} accesses)", w.name);
            assert!(total < 8_000_000, "{} too large ({total} accesses)", w.name);
        }
    }

    #[test]
    fn scaling_grows_footprint() {
        for name in ["mxm", "jacobi-3d", "moldyn"] {
            let s1 = build(name, Scale::default());
            let s2 = build(name, Scale::x2());
            let s4 = build(name, Scale::x4());
            assert!(s2.program.footprint() > s1.program.footprint(), "{name} x2");
            assert!(s4.program.footprint() > s2.program.footprint(), "{name} x4");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build("moldyn", Scale::default());
        let b = build("moldyn", Scale::default());
        assert_eq!(a.program.footprint(), b.program.footprint());
        // Index arrays identical.
        for nest in a.program.nests() {
            let space = IterationSpace::enumerate(nest, &a.program.params());
            for iv in space.iter().step_by(97) {
                for r in &nest.refs {
                    assert_eq!(a.program.resolve(r, iv, &a.data), b.program.resolve(r, iv, &b.data));
                }
            }
        }
    }

    #[test]
    fn index_array_digests_are_pinned() {
        // `DataEnv::digest` of every irregular benchmark at the two scales
        // of `map-service`'s pool. The digest keys the session's memo
        // caches and orders `verify_batch`'s groups, so a generator that
        // moves one element, or a digest that hashes elements at another
        // width, fails here.
        #[rustfmt::skip]
        let pinned: [(&str, [u64; 2], [u64; 2]); 11] = [
            ("barnes", [0x8502259701a7f729, 0x221a7a47b51b70ab], [0xe97c2617eb92eb80, 0x48e62632a637cc93]),
            ("fmm", [0x8b47e5141b7f0713, 0x2a6905f30b0f3bef], [0xebc6d31dc0a0b565, 0x8bde13534bd0a88b]),
            ("radiosity", [0xf9819b7b0c83a91e, 0xa9202d27dbde9715], [0x4bb833cac5012caf, 0xd232af27828b5055]),
            ("raytrace", [0xa3b1e6064c86cad4, 0xe5c25feadc46641d], [0x214f107256e9bc32, 0xd7251e627a18c11e]),
            ("volrend", [0x076e1bbb1e27333c, 0x0740a9329c090ec9], [0x7ba45ab30b8c9181, 0xc23fdeb41ce1ecaf]),
            ("radix", [0x8a8a2c6dbb8e7e0e, 0x89542f48b6a18586], [0x8958664c01eb852d, 0xef40cc56d97a5ce1]),
            ("art", [0x12abb8d31761d0e0, 0xd1327e135c55588b], [0xe3c064f5d443f452, 0x59891a5facf1df2d]),
            ("nbf", [0x110f6a37660441c0, 0x0534c190158063b7], [0x497391e349ad70b2, 0x2db0a51c49ebfa0c]),
            ("hpccg", [0xf0932cca58a9993b, 0x662e64124466786e], [0x1e7c437af04eeb82, 0x378e6a873089d428]),
            ("equake", [0x73510dabe9fcdd7a, 0x576e01fd04242e6f], [0xbc621f87c5ce1f5b, 0x31efb0bf3f994e01]),
            ("moldyn", [0xa25dbdd285b5bf0e, 0xdaaf4ceb648f326a], [0x7a551f385c801a0a, 0x2ba9ce0c8f52257f]),
        ];
        for (name, default, half) in pinned {
            let digest = |scale| build(name, scale).data.digest();
            assert_eq!(digest(Scale::default()), default, "{name} at scale 1");
            assert_eq!(digest(Scale::new(0.5)), half, "{name} at scale 0.5");
        }
        let irregular = names().iter().filter(|n| build(n, Scale::new(0.1)).irregular);
        assert_eq!(irregular.count(), pinned.len(), "every irregular benchmark is pinned");
    }

    #[test]
    fn table3_metadata_present() {
        for w in build_all(Scale::default()) {
            if w.name == "lu" || w.name == "radix" {
                continue; // not in the paper's Table 3
            }
            assert!(w.table3.loop_nests > 0, "{}", w.name);
            assert!(w.table3.iteration_groups > 0, "{}", w.name);
        }
    }
}
