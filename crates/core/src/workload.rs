//! Internal bridge from configurations to the engine's packet sources.
//!
//! Every exploration step turns a [`TraceSpec`] into simulation input in
//! one of two ways: materialize the trace once and share it by reference
//! (fast when many units reuse it and it fits in memory), or keep only the
//! [`StreamSpec`] description and let each simulation stream its packets
//! in constant memory (the only option at million-packet scale). This
//! module owns that choice so step 1, step 2 and the GA share one code
//! path — and one fallible construction route through
//! [`TraceGenerator::try_new`] instead of panicking constructors.

use crate::error::ExploreError;
use ddtr_engine::TraceSource;
use ddtr_trace::{NetworkParams, StreamSpec, Trace, TraceError, TraceGenerator, TraceSpec};

/// A built workload: either the materialized packets or their streamed
/// description.
#[derive(Debug, Clone)]
pub(crate) enum Workload {
    /// The packets, generated up front.
    Materialized(Trace),
    /// The description; packets are generated on the fly per simulation.
    Streamed(StreamSpec),
}

impl Workload {
    /// Builds the workload for `spec`, validating it — an invalid spec
    /// surfaces as [`ExploreError::InvalidConfig`], never a panic.
    pub(crate) fn build(
        spec: TraceSpec,
        packets: usize,
        streaming: bool,
    ) -> Result<Self, ExploreError> {
        if streaming {
            Ok(Workload::Streamed(
                StreamSpec::single(spec, packets).map_err(invalid)?,
            ))
        } else {
            let generator = TraceGenerator::try_new(spec).map_err(invalid)?;
            Ok(Workload::Materialized(generator.generate(packets)))
        }
    }

    /// The engine-facing packet source.
    pub(crate) fn source(&self) -> TraceSource<'_> {
        match self {
            Workload::Materialized(trace) => TraceSource::Materialized(trace),
            Workload::Streamed(spec) => TraceSource::Streamed(spec),
        }
    }

    /// Extracts the network parameters (single pass; the streamed form
    /// never materializes the packets).
    pub(crate) fn extract_params(&self) -> NetworkParams {
        match self {
            Workload::Materialized(trace) => NetworkParams::extract(trace),
            Workload::Streamed(spec) => NetworkParams::extract_stream(spec.name(), spec.stream()),
        }
    }
}

fn invalid(e: TraceError) -> ExploreError {
    ExploreError::InvalidConfig(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_trace::NetworkPreset;

    #[test]
    fn both_forms_expose_the_same_network_and_parameters() {
        let spec = NetworkPreset::DartmouthBerry.spec();
        let mat = Workload::build(spec.clone(), 300, false).expect("materialized");
        let str = Workload::build(spec, 300, true).expect("streamed");
        assert_eq!(mat.source().network(), str.source().network());
        assert_eq!(mat.extract_params(), str.extract_params());
        // Distinct fingerprint domains: packets versus description.
        assert_ne!(mat.source().fingerprint(), str.source().fingerprint());
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        let mut spec = NetworkPreset::DartmouthBerry.spec();
        spec.nodes = 0;
        for streaming in [false, true] {
            let err = Workload::build(spec.clone(), 10, streaming).unwrap_err();
            assert!(err.to_string().contains("two nodes"), "{err}");
        }
    }
}
