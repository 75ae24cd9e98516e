//! Result digests and the golden table.
//!
//! The simulated statistics are the reproduction, so the benchmark
//! checks them bit for bit instead of scoring them. A digest is FNV-1a
//! over every [`CostReport`] a result carries (f64 energy as its bits)
//! and every front. `golden.json` beside this package holds the digest
//! of every configuration any seed can generate; regenerate it only with
//! `python3 perfbench/run.py golden` and record why in `CHANGES.md`.

use ddtr_core::{ExploreResult, GaOutcome, MethodologyOutcome, SimLog};
use ddtr_mem::CostReport;
use std::collections::BTreeMap;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed string in.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds a little-endian `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds every field of a cost report in, energy as its IEEE bits.
    pub fn report(&mut self, r: &CostReport) {
        self.u64(r.accesses);
        self.u64(r.cycles);
        self.u64(r.energy_nj.to_bits());
        self.u64(r.peak_footprint_bytes);
    }

    fn log(&mut self, log: &SimLog) {
        self.str(&log.combo);
        self.str(&log.network);
        self.str(&log.params);
        self.report(&log.report);
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a methodology outcome: every step-1 and step-2 log, every
/// per-configuration front and the global front.
#[must_use]
pub fn outcome_digest(o: &MethodologyOutcome) -> u64 {
    let mut h = Fnv::default();
    h.str("explore");
    h.str(&o.config.app.to_string());
    o.step1.measurements.iter().for_each(|l| h.log(l));
    o.step2.logs.iter().for_each(|l| h.log(l));
    for front in &o.pareto.per_config {
        h.str(&front.config_key.network);
        h.str(&front.config_key.params);
        for p in &front.front {
            h.str(&p.combo);
            h.report(&p.report);
        }
    }
    for p in &o.pareto.global_front {
        h.str(&p.combo);
        h.report(&p.report);
    }
    h.finish()
}

/// Digest of a GA outcome: every front log.
#[must_use]
pub fn ga_digest(o: &GaOutcome) -> u64 {
    let mut h = Fnv::default();
    h.str("ga");
    o.front.iter().for_each(|l| h.log(l));
    h.finish()
}

/// Digest of a dispatched result (explore and GA modes only).
#[must_use]
pub fn result_digest(r: &ExploreResult) -> Option<u64> {
    match r {
        ExploreResult::Explore(o) => Some(outcome_digest(o)),
        ExploreResult::Ga(o) => Some(ga_digest(o)),
        _ => None,
    }
}

/// The canonical bytes of a result's fronts, for byte-identity checks.
#[must_use]
pub fn front_bytes(r: &ExploreResult) -> String {
    let json = match r {
        ExploreResult::Explore(o) => serde_json::to_string(&o.pareto),
        ExploreResult::Ga(o) => serde_json::to_string(&o.front),
        other => serde_json::to_string(&other.front_labels()),
    };
    json.expect("fronts serialise")
}

/// Combines per-result digests into one run digest, order-independent
/// in the results (sorted first).
#[must_use]
pub fn combine(digests: &[u64]) -> u64 {
    let mut sorted = digests.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut h = Fnv::default();
    sorted.iter().for_each(|&d| h.u64(d));
    h.finish()
}

/// The checked-in golden digests, keyed by configuration.
#[derive(Debug, Clone, Default)]
pub struct Golden(BTreeMap<String, u64>);

/// The golden table compiled into the benchmark.
pub const GOLDEN_JSON: &str = include_str!("../golden.json");

impl Golden {
    /// Parses a golden table (`{"key": "hex digest", ...}`).
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = serde_json::parse(text).map_err(|e| e.to_string())?;
        let serde_json::Value::Map(map) = value else {
            return Err("golden table must be a JSON object".into());
        };
        let mut table = BTreeMap::new();
        for (key, v) in map.iter() {
            let serde_json::Value::Str(hex) = v else {
                return Err(format!("golden `{key}` is not a string"));
            };
            let d = u64::from_str_radix(hex, 16).map_err(|e| format!("golden `{key}`: {e}"))?;
            table.insert(key.clone(), d);
        }
        Ok(Golden(table))
    }

    /// The compiled-in table.
    ///
    /// # Panics
    ///
    /// When `golden.json` is malformed: the benchmark cannot check
    /// anything without it.
    #[must_use]
    pub fn builtin() -> Self {
        Self::parse(GOLDEN_JSON).expect("perfbench/golden.json is well-formed")
    }

    /// Whether `digest` is the golden digest of `key` (an unknown key
    /// fails).
    #[must_use]
    pub fn matches(&self, key: &str, digest: u64) -> bool {
        self.0.get(key) == Some(&digest)
    }

    /// Renders a table as sorted, one-key-per-line JSON.
    #[must_use]
    pub fn render(entries: &BTreeMap<String, u64>) -> String {
        let lines: Vec<String> = entries
            .iter()
            .map(|(k, d)| format!("  \"{k}\": \"{d:016x}\""))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn energy_bits_move_the_digest() {
        let a = CostReport {
            accesses: 1,
            cycles: 2,
            energy_nj: 0.1,
            peak_footprint_bytes: 3,
        };
        let b = CostReport {
            energy_nj: f64::from_bits(0.1f64.to_bits() + 1),
            ..a
        };
        let digest = |r: &CostReport| {
            let mut h = Fnv::default();
            h.report(r);
            h.finish()
        };
        assert_ne!(digest(&a), digest(&b), "one ulp of energy must show");
    }

    #[test]
    fn golden_round_trips_and_rejects_unknown_keys() {
        let mut entries = BTreeMap::new();
        entries.insert("k/a".to_string(), 0xdead_beef_u64);
        let golden = Golden::parse(&Golden::render(&entries)).expect("parses");
        assert!(golden.matches("k/a", 0xdead_beef));
        assert!(!golden.matches("k/a", 1));
        assert!(!golden.matches("k/b", 0xdead_beef));
        assert!(Golden::parse("[1]").is_err());
        assert_eq!(
            Golden::builtin().0.len(),
            100,
            "25 paper + 75 quick configs"
        );
    }

    #[test]
    fn combine_ignores_order_and_repeats() {
        assert_eq!(combine(&[1, 2, 3]), combine(&[3, 1, 2, 2]));
        assert_ne!(combine(&[1, 2]), combine(&[1, 3]));
    }
}
