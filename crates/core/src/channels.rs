//! Optional data channels and their availability in a trace.
//!
//! The paper's analyses draw on channels beyond the failure log itself
//! — job/usage records, node temperatures, neutron-monitor counts — and
//! real releases routinely lack one or more of them. Experiments
//! declare which channels they require; the runner checks the trace
//! with [`missing_channels`] and skips (rather than panics) when the
//! data simply is not there.

use hpcfail_store::trace::Trace;

/// A data channel an analysis may require beyond the failure log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Per-node temperature samples on at least one system.
    Temperature,
    /// Job/usage records on at least one system.
    JobLog,
    /// Fleet-wide neutron-monitor samples.
    Neutron,
}

impl Channel {
    /// Every channel.
    pub const ALL: [Channel; 3] = [Channel::Temperature, Channel::JobLog, Channel::Neutron];

    /// Human-readable name used in skip messages and counters.
    pub fn label(self) -> &'static str {
        match self {
            Channel::Temperature => "temperature",
            Channel::JobLog => "job-log",
            Channel::Neutron => "neutron",
        }
    }

    /// `true` if the trace carries any data on this channel.
    pub fn present_in(self, trace: &Trace) -> bool {
        match self {
            Channel::Temperature => trace.systems().any(|s| !s.temperatures().is_empty()),
            Channel::JobLog => trace.systems().any(|s| !s.job_columns().is_empty()),
            Channel::Neutron => !trace.neutron_samples().is_empty(),
        }
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The subset of `required` channels the trace lacks, in declaration
/// order. Empty means the analysis can run.
pub fn missing_channels(trace: &Trace, required: &[Channel]) -> Vec<Channel> {
    required
        .iter()
        .copied()
        .filter(|c| !c.present_in(trace))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;
    use hpcfail_types::prelude::*;

    fn empty_trace() -> Trace {
        let mut trace = Trace::new();
        let config = SystemConfig {
            id: SystemId::new(1),
            name: "t".into(),
            nodes: 2,
            procs_per_node: 2,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(10.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        trace.insert_system(SystemTraceBuilder::new(config).build());
        trace
    }

    #[test]
    fn empty_trace_lacks_all_channels() {
        let trace = empty_trace();
        assert_eq!(
            missing_channels(&trace, &Channel::ALL),
            Channel::ALL.to_vec()
        );
        assert!(missing_channels(&trace, &[]).is_empty());
    }

    #[test]
    fn neutron_channel_tracks_samples() {
        let mut trace = empty_trace();
        trace.set_neutron_samples(vec![NeutronSample {
            time: Timestamp::EPOCH,
            counts_per_minute: 100.0,
        }]);
        assert!(Channel::Neutron.present_in(&trace));
        assert_eq!(missing_channels(&trace, &[Channel::Neutron]), vec![]);
        assert_eq!(
            missing_channels(&trace, &Channel::ALL),
            vec![Channel::Temperature, Channel::JobLog]
        );
    }
}
