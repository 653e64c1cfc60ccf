//! Minimal `--flag value` argument parsing (no external dependencies).

use locmap_bench::Scheme;
use locmap_core::LlcOrg;
use locmap_noc::FaultCounts;
use locmap_workloads::{names, Scale};
use std::collections::HashMap;

/// Parsed command-line options shared by the subcommands.
#[derive(Debug, Clone)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs; rejects unknown shapes.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// `--app NAME` (required by run/map), a benchmark `locmap list` names.
    pub fn app(&self) -> Result<&str, String> {
        let name = self
            .get("app")
            .ok_or_else(|| "--app <name> is required (see `locmap list`)".to_string())?;
        known(name)
    }

    /// `--apps a,b,c` (required by corun), each a benchmark `locmap list`
    /// names.
    pub fn apps(&self) -> Result<Vec<&str>, String> {
        let raw = self.get("apps").ok_or_else(|| "--apps a,b,c is required".to_string())?;
        raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(known).collect()
    }

    /// `--apps a,b,c`, or `default` when the flag is absent (batch).
    pub fn apps_or<'s>(&'s self, default: &[&'s str]) -> Result<Vec<&'s str>, String> {
        if self.get("apps").is_none() {
            return Ok(default.to_vec());
        }
        self.apps()
    }

    /// `--llc private|shared` (default shared).
    pub fn llc(&self) -> Result<LlcOrg, String> {
        match self.get("llc").unwrap_or("shared") {
            "private" => Ok(LlcOrg::Private),
            "shared" => Ok(LlcOrg::SharedSNuca),
            other => Err(format!("--llc must be private|shared, got {other:?}")),
        }
    }

    /// `--scheme default|la|ideal|oracle|hardware|do|la+do` (default la).
    pub fn scheme(&self) -> Result<Scheme, String> {
        match self.get("scheme").unwrap_or("la") {
            "default" => Ok(Scheme::Default),
            "la" => Ok(Scheme::LocationAware),
            "ideal" => Ok(Scheme::IdealNetwork),
            "oracle" => Ok(Scheme::Oracle),
            "hardware" => Ok(Scheme::Hardware),
            "do" => Ok(Scheme::LayoutOnly),
            "la+do" => Ok(Scheme::LayoutPlusLa),
            other => Err(format!(
                "--scheme must be default|la|ideal|oracle|hardware|do|la+do, got {other:?}"
            )),
        }
    }

    /// `--seed N` (default 7), the fault-injection RNG seed.
    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(7),
            Some(v) => {
                v.parse().map_err(|_| format!("--seed must be a non-negative integer, got {v:?}"))
            }
        }
    }

    /// `--timeline transient|persistent` (default transient); returns the
    /// `transient` flag [`FaultPlan::random_timed`] expects.
    ///
    /// [`FaultPlan::random_timed`]: locmap_noc::FaultPlan::random_timed
    pub fn timeline(&self) -> Result<bool, String> {
        match self.get("timeline").unwrap_or("transient") {
            "transient" => Ok(true),
            "persistent" => Ok(false),
            other => Err(format!("--timeline must be transient|persistent, got {other:?}")),
        }
    }

    /// `--KEY N` non-negative count (default 0) — e.g. `--dead-mcs 1`.
    pub fn count(&self, key: &str) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(0),
            Some(v) => {
                v.parse().map_err(|_| format!("--{key} must be a non-negative integer, got {v:?}"))
            }
        }
    }

    /// `--dead-links`, `--dead-routers`, `--dead-mcs` and `--dead-banks`
    /// counts (each default 0).
    pub fn fault_counts(&self) -> Result<FaultCounts, String> {
        Ok(FaultCounts {
            links: self.count("dead-links")?,
            routers: self.count("dead-routers")?,
            mcs: self.count("dead-mcs")?,
            banks: self.count("dead-banks")?,
        })
    }

    /// `--KEY N` positive count with an explicit default — e.g.
    /// `--threads 4`. Zero is rejected: every caller needs at least one
    /// worker or repetition.
    pub fn count_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(0) | Err(_) => Err(format!("--{key} must be a positive integer, got {v:?}")),
                Ok(n) => Ok(n),
            },
        }
    }

    /// `--KEY a,b,c` comma-separated list of positive numbers with a
    /// default — e.g. `--load 1,3,10`.
    pub fn floats_or(&self, key: &str, default: &[f64]) -> Result<Vec<f64>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| match s.parse::<f64>() {
                    Ok(f) if f > 0.0 && f.is_finite() => Ok(f),
                    _ => Err(format!("--{key} entries must be positive numbers, got {s:?}")),
                })
                .collect(),
        }
    }

    /// `--KEY WxH` dimension pair (e.g. `--mesh 6x6`), if present.
    pub fn dims(&self, key: &str) -> Result<Option<(u16, u16)>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let bad = || format!("--{key} must look like WxH (e.g. 6x6), got {v:?}");
                let (w, h) = v.split_once(['x', 'X']).ok_or_else(bad)?;
                Ok(Some((w.trim().parse().map_err(|_| bad())?, h.trim().parse().map_err(|_| bad())?)))
            }
        }
    }

    /// `--scale F` (default 1.0), the input-size factor.
    pub fn scale(&self) -> Result<Scale, String> {
        match self.get("scale") {
            None => Ok(Scale::default()),
            Some(v) => {
                let f: f64 = v.parse().map_err(|_| format!("--scale must be a number, got {v:?}"))?;
                if !(0.1..=16.0).contains(&f) {
                    return Err(format!("--scale must be in [0.1, 16], got {f}"));
                }
                Ok(Scale::new(f))
            }
        }
    }
}

/// `name` when it is a benchmark of the inventory, else the error every
/// subcommand prints for an unknown one.
fn known(name: &str) -> Result<&str, String> {
    if names().contains(&name) {
        Ok(name)
    } else {
        Err(format!("unknown benchmark {name:?}; see `locmap list`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let a = Args::parse(&argv(&["--app", "mxm", "--llc", "private"])).unwrap();
        assert_eq!(a.app().unwrap(), "mxm");
        assert_eq!(a.llc().unwrap(), LlcOrg::Private);
        assert_eq!(a.scheme().unwrap(), Scheme::LocationAware);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Args::parse(&argv(&["app"])).is_err());
        assert!(Args::parse(&argv(&["--app"])).is_err());
        let a = Args::parse(&argv(&["--llc", "weird"])).unwrap();
        assert!(a.llc().is_err());
        let a = Args::parse(&argv(&["--scheme", "nope"])).unwrap();
        assert!(a.scheme().is_err());
        let a = Args::parse(&argv(&["--scale", "99"])).unwrap();
        assert!(a.scale().is_err());
    }

    #[test]
    fn apps_list_splits() {
        let a = Args::parse(&argv(&["--apps", "mxm, fft,moldyn"])).unwrap();
        assert_eq!(a.apps().unwrap(), vec!["mxm", "fft", "moldyn"]);
    }

    #[test]
    fn unknown_benchmarks_are_rejected() {
        let unknown = "unknown benchmark \"nope\"; see `locmap list`";
        assert_eq!(Args::parse(&argv(&["--app", "nope"])).unwrap().app().unwrap_err(), unknown);
        let a = Args::parse(&argv(&["--apps", "mxm,nope"])).unwrap();
        assert_eq!(a.apps().unwrap_err(), unknown);
        assert_eq!(a.apps_or(&["mxm"]).unwrap_err(), unknown);
        assert_eq!(Args::parse(&[]).unwrap().apps_or(&["mxm"]).unwrap(), vec!["mxm"]);
    }

    #[test]
    fn fault_flags_parse() {
        let a = Args::parse(&argv(&["--dead-mcs", "2", "--dead-routers", "1", "--seed", "13"]))
            .unwrap();
        let counts = FaultCounts { routers: 1, mcs: 2, ..FaultCounts::default() };
        assert_eq!(a.fault_counts().unwrap(), counts);
        assert_eq!(a.seed().unwrap(), 13);
        assert_eq!(Args::parse(&[]).unwrap().seed().unwrap(), 7);
        assert!(Args::parse(&[]).unwrap().fault_counts().unwrap().is_empty());
        let bad = Args::parse(&argv(&["--dead-mcs", "-1"])).unwrap();
        assert!(bad.fault_counts().is_err());
    }

    #[test]
    fn timeline_parses() {
        assert!(Args::parse(&[]).unwrap().timeline().unwrap());
        let a = Args::parse(&argv(&["--timeline", "persistent"])).unwrap();
        assert!(!a.timeline().unwrap());
        let bad = Args::parse(&argv(&["--timeline", "flaky"])).unwrap();
        assert!(bad.timeline().is_err());
    }

    #[test]
    fn floats_parse() {
        let a = Args::parse(&argv(&["--load", "1, 3,10"])).unwrap();
        assert_eq!(a.floats_or("load", &[2.0]).unwrap(), vec![1.0, 3.0, 10.0]);
        assert_eq!(Args::parse(&[]).unwrap().floats_or("load", &[2.0]).unwrap(), vec![2.0]);
        let bad = Args::parse(&argv(&["--load", "1,-3"])).unwrap();
        assert!(bad.floats_or("load", &[]).is_err());
        let zero = Args::parse(&argv(&["--load", "0"])).unwrap();
        assert!(zero.floats_or("load", &[]).is_err());
    }

    #[test]
    fn dims_parse() {
        let a = Args::parse(&argv(&["--mesh", "8x4"])).unwrap();
        assert_eq!(a.dims("mesh").unwrap(), Some((8, 4)));
        assert_eq!(a.dims("regions").unwrap(), None);
        let bad = Args::parse(&argv(&["--mesh", "8by4"])).unwrap();
        assert!(bad.dims("mesh").is_err());
    }
}
