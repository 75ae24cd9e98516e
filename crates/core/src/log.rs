//! Persistence of exploration logs as JSON lines.
//!
//! The original tool flow wrote "Gigabytes of log files" that the Perl
//! post-processor parsed into Pareto curves. This module provides the same
//! decoupling: step 2 can stream [`SimLog`] records to a writer, and step 3
//! can be re-run later from the file alone.

use crate::error::ExploreError;
use crate::step2::Step2Result;
use ddtr_engine::SimLog;
use std::io::{BufRead, Write};

/// Writes `logs` as one JSON object per line.
///
/// A mutable reference also works as the writer (`&mut Vec<u8>`).
///
/// # Errors
///
/// Returns [`ExploreError::Log`] on serialisation or I/O failure.
pub fn write_logs<W: Write>(logs: &[SimLog], mut w: W) -> Result<(), ExploreError> {
    for log in logs {
        let line = serde_json::to_string(log).map_err(|e| ExploreError::Log(e.to_string()))?;
        writeln!(w, "{line}").map_err(|e| ExploreError::Log(e.to_string()))?;
    }
    // A dropped `BufWriter` would swallow the error of its final write.
    w.flush().map_err(|e| ExploreError::Log(e.to_string()))
}

/// Reads JSON-lines logs written by [`write_logs`]. Blank lines are
/// skipped.
///
/// # Errors
///
/// Returns [`ExploreError::Log`] naming the first malformed line.
pub fn read_logs<R: BufRead>(r: R) -> Result<Vec<SimLog>, ExploreError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| ExploreError::Log(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let log: SimLog = serde_json::from_str(&line)
            .map_err(|e| ExploreError::Log(format!("line {}: {e}", i + 1)))?;
        out.push(log);
    }
    Ok(out)
}

/// Rebuilds a [`Step2Result`] from persisted logs so step 3 can run
/// without re-simulating (configuration metadata is not persisted — only
/// what step 3 needs).
#[must_use]
pub fn step2_from_logs(logs: Vec<SimLog>) -> Step2Result {
    Step2Result {
        configs: Vec::new(),
        logs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MethodologyConfig;
    use crate::step2::explore_network_level;
    use crate::step3::explore_pareto_level;
    use ddtr_apps::AppKind;
    use ddtr_ddt::DdtKind;

    fn sample_logs() -> Vec<SimLog> {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        explore_network_level(
            &cfg,
            &[[DdtKind::Array, DdtKind::Sll], [DdtKind::Dll, DdtKind::Dll]],
        )
        .expect("step 2 runs")
        .logs
    }

    #[test]
    fn logs_round_trip_through_jsonl() {
        let logs = sample_logs();
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).expect("writes");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), logs.len());
        let back = read_logs(text.as_bytes()).expect("reads");
        assert_eq!(back.len(), logs.len());
        for (a, b) in logs.iter().zip(back.iter()) {
            assert_eq!(a.combo, b.combo);
            assert_eq!(a.config_key(), b.config_key());
            assert_eq!(a.report.accesses, b.report.accesses);
        }
    }

    #[test]
    fn step3_from_persisted_logs_equals_direct() {
        let logs = sample_logs();
        let direct = explore_pareto_level(&step2_from_logs(logs.clone())).expect("direct");
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).expect("writes");
        let reread = read_logs(buf.as_slice()).expect("reads");
        let via_file = explore_pareto_level(&step2_from_logs(reread)).expect("via file");
        let key = |r: &crate::step3::ParetoReport| {
            r.global_front
                .iter()
                .map(|p| p.combo.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&direct), key(&via_file));
    }

    #[test]
    fn malformed_line_is_located() {
        let text = "\n{not json}\n";
        let err = read_logs(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let logs = sample_logs();
        let mut buf = Vec::new();
        write_logs(&logs[..1], &mut buf).expect("writes");
        let padded = format!("\n{}\n\n", String::from_utf8(buf).expect("utf8"));
        assert_eq!(read_logs(padded.as_bytes()).expect("reads").len(), 1);
    }
}
