//! Simulator configuration (the paper's Table 4).

use locmap_mem::{CacheConfig, DramConfig};
use locmap_noc::{LocmapError, NocConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Timing and structure parameters of the simulated manycore.
///
/// [`SimConfig::table4`] reproduces the paper's Table 4 literally: 1 GHz,
/// 2-issue cores; 16 KB 8-way L1 with 32 B lines; 512 KB 16-way L2 bank
/// per core; 3-cycle routers; DDR3-1333 with 4 MCs and 2 KB rows.
///
/// [`SimConfig::default`] keeps every latency and structural ratio of
/// Table 4 but scales the cache *capacities* down (8 KB L1, 32 KB L2
/// bank) to match the reproduction's scaled-down workload footprints
/// (megabytes instead of the paper's 451 MB–1.4 GB inputs), so steady-state
/// LLC miss rates land in the paper's 13–37 % band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// On-chip network parameters.
    pub noc: NocConfig,
    /// Private L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 (LLC) bank geometry.
    pub l2_bank: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Cycles per non-memory instruction (2-issue in-order ⇒ 0.5).
    pub cpi_base: f64,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// L2 bank access latency in cycles (tag + data array).
    pub l2_hit_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            noc: NocConfig::default(),
            l1: CacheConfig::scaled_l1(),
            l2_bank: CacheConfig::scaled_l2_bank(),
            dram: DramConfig::ddr3_1333(),
            cpi_base: 0.5,
            l1_hit_cycles: 1,
            l2_hit_cycles: 8,
        }
    }
}

impl SimConfig {
    /// The paper's Table 4 parameters, verbatim (full-size caches).
    pub fn table4() -> Self {
        SimConfig {
            l1: CacheConfig::paper_l1(),
            l2_bank: CacheConfig::paper_l2_bank(),
            ..SimConfig::default()
        }
    }

    /// Table 4 defaults with DDR4-2400 (Figure 12).
    pub fn ddr4() -> Self {
        SimConfig { dram: DramConfig::ddr4_2400(), ..SimConfig::default() }
    }

    /// Scales the per-core L2 bank capacity (Figure 9's "1MB/core LLC").
    pub fn with_l2_bank_bytes(mut self, bytes: u64) -> Self {
        self.l2_bank = CacheConfig { size_bytes: bytes, ..self.l2_bank };
        self
    }

    /// Checks the configuration for values the simulator cannot run with,
    /// returning a [`LocmapError::InvalidConfig`] naming the offending
    /// field instead of panicking (or dividing by zero) deep inside the
    /// cache model.
    pub fn validate(&self) -> Result<(), LocmapError> {
        fn cache(label: &str, c: &CacheConfig) -> Result<(), LocmapError> {
            let err = |msg: String| Err(LocmapError::InvalidConfig(msg));
            if c.line_bytes == 0 || !c.line_bytes.is_power_of_two() {
                return err(format!("{label} line size must be a power of two (got {})", c.line_bytes));
            }
            if c.ways == 0 {
                return err(format!("{label} associativity must be non-zero"));
            }
            if c.size_bytes == 0 || !c.size_bytes.is_multiple_of(c.line_bytes * c.ways as u64) {
                return err(format!(
                    "{label} capacity {} B must be a non-zero multiple of ways x line ({} x {})",
                    c.size_bytes, c.ways, c.line_bytes
                ));
            }
            Ok(())
        }
        cache("L1", &self.l1)?;
        cache("L2 bank", &self.l2_bank)?;
        if !(self.cpi_base.is_finite() && self.cpi_base > 0.0) {
            return Err(LocmapError::InvalidConfig(format!(
                "cpi_base must be finite and positive (got {})",
                self.cpi_base
            )));
        }
        if self.noc.link_traversal == 0 {
            return Err(LocmapError::InvalidConfig(
                "link_traversal must be non-zero (a flit cannot cross a link in 0 cycles)".into(),
            ));
        }
        if self.dram.banks == 0 {
            return Err(LocmapError::InvalidConfig("DRAM banks per rank must be non-zero".into()));
        }
        if self.dram.request_buffer == 0 {
            return Err(LocmapError::InvalidConfig("MC request buffer must hold at least one entry".into()));
        }
        Ok(())
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "L1: {} KB, {}-way, {} B/line", self.l1.size_bytes / 1024, self.l1.ways, self.l1.line_bytes)?;
        writeln!(
            f,
            "L2 bank: {} KB, {}-way, {} B/line",
            self.l2_bank.size_bytes / 1024,
            self.l2_bank.ways,
            self.l2_bank.line_bytes
        )?;
        writeln!(f, "Router overhead: {} cycles", self.noc.router_delay)?;
        writeln!(f, "DRAM: {:?}, {} banks/rank", self.dram.kind, self.dram.banks)?;
        write!(f, "Core: 2-issue in-order, cpi_base {}", self.cpi_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table4() {
        let c = SimConfig::table4();
        assert_eq!(c.l1.size_bytes, 16 * 1024);
        assert_eq!(c.l1.ways, 8);
        assert_eq!(c.l1.line_bytes, 32);
        assert_eq!(c.l2_bank.size_bytes, 512 * 1024);
        assert_eq!(c.l2_bank.ways, 16);
        assert_eq!(c.l2_bank.line_bytes, 64);
        assert_eq!(c.noc.router_delay, 3);
        assert_eq!(c.dram.banks, 8);
    }

    #[test]
    fn llc_scaling() {
        let c = SimConfig::default().with_l2_bank_bytes(1024 * 1024);
        assert_eq!(c.l2_bank.size_bytes, 1024 * 1024);
        assert_eq!(c.l2_bank.ways, 16);
    }

    #[test]
    fn display_mentions_key_parameters() {
        let s = SimConfig::table4().to_string();
        assert!(s.contains("16 KB"));
        assert!(s.contains("512 KB"));
        assert!(s.contains("Router overhead: 3"));
    }

    #[test]
    fn validate_accepts_all_presets() {
        for cfg in [SimConfig::default(), SimConfig::table4(), SimConfig::ddr4()] {
            assert!(cfg.validate().is_ok(), "{cfg}");
        }
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut c = SimConfig::default();
        c.l1.line_bytes = 48;
        let e = c.validate().unwrap_err().to_string();
        assert!(e.contains("L1") && e.contains("power of two"), "{e}");

        let mut c = SimConfig::default();
        c.l2_bank.ways = 0;
        assert!(c.validate().unwrap_err().to_string().contains("L2 bank"));

        let c = SimConfig { cpi_base: f64::NAN, ..Default::default() };
        assert!(c.validate().unwrap_err().to_string().contains("cpi_base"));

        let mut c = SimConfig::default();
        c.noc.link_traversal = 0;
        assert!(c.validate().unwrap_err().to_string().contains("link_traversal"));

        let mut c = SimConfig::default();
        c.dram.banks = 0;
        assert!(c.validate().unwrap_err().to_string().contains("DRAM banks"));
    }

    #[test]
    fn scaled_default_preserves_geometry_ratios() {
        let c = SimConfig::default();
        assert_eq!(c.l1.ways, 8);
        assert_eq!(c.l1.line_bytes, 32);
        assert_eq!(c.l2_bank.ways, 16);
        assert_eq!(c.l2_bank.line_bytes, 64);
        // L2 bank stays 4x the L1, as in Table 4 (512/16 = 32/8... the
        // paper ratio is 32x; we keep L2 > L1 with both scaled).
        assert!(c.l2_bank.size_bytes > c.l1.size_bytes);
    }
}
