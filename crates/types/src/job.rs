//! Job records from system usage logs.
//!
//! Two LANL systems (8 and 20) ship job logs: submission, dispatch and end
//! times, the requested processor count, the submitting user and the nodes
//! the job ran on. These drive the paper's usage (Section V) and per-user
//! (Section VI) analyses.

use crate::ids::{JobId, NodeId, SystemId, UserId};
use crate::time::{Duration, Timestamp};

/// One job from a system's usage log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobRecord {
    /// The system the job ran on.
    pub system: SystemId,
    /// The job's number within the log.
    pub job_id: JobId,
    /// The submitting user.
    pub user: UserId,
    /// When the job entered the queue.
    pub submit: Timestamp,
    /// When the job was dispatched from the queue to start running.
    pub dispatch: Timestamp,
    /// When the job finished.
    pub end: Timestamp,
    /// Number of processors requested.
    pub procs: u32,
    /// The nodes the job was assigned to.
    pub nodes: Vec<NodeId>,
}

impl JobRecord {
    /// The job's wall-clock run time (dispatch to end).
    ///
    /// Returns [`Duration::ZERO`] for malformed records whose end precedes
    /// their dispatch.
    pub fn runtime(&self) -> Duration {
        let d = self.end - self.dispatch;
        if d.is_positive() {
            d
        } else {
            Duration::ZERO
        }
    }

    /// Time spent waiting in the queue (submit to dispatch), clamped to zero.
    pub fn queue_wait(&self) -> Duration {
        let d = self.dispatch - self.submit;
        if d.is_positive() {
            d
        } else {
            Duration::ZERO
        }
    }

    /// Processor-days consumed: `procs x runtime`, the unit Section VI
    /// normalizes per-user failure counts by.
    pub fn processor_days(&self) -> f64 {
        self.procs as f64 * self.runtime().as_days()
    }

    /// `true` if the record is internally consistent: dispatch not before
    /// submit, end not before dispatch, at least one processor and node.
    pub fn is_well_formed(&self) -> bool {
        self.submit <= self.dispatch
            && self.dispatch <= self.end
            && self.procs >= 1
            && !self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord {
            system: SystemId::new(8),
            job_id: JobId::new(1),
            user: UserId::new(3),
            submit: Timestamp::from_days(1.0),
            dispatch: Timestamp::from_days(1.5),
            end: Timestamp::from_days(3.5),
            procs: 4,
            nodes: vec![NodeId::new(10), NodeId::new(11)],
        }
    }

    #[test]
    fn runtime_and_wait() {
        let j = job();
        assert_eq!(j.runtime(), Duration::from_days(2.0));
        assert_eq!(j.queue_wait(), Duration::from_days(0.5));
    }

    #[test]
    fn processor_days() {
        let j = job();
        assert!((j.processor_days() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_runtime_clamps_to_zero() {
        let mut j = job();
        j.end = Timestamp::from_days(1.0);
        assert_eq!(j.runtime(), Duration::ZERO);
        assert!(!j.is_well_formed());
    }

    #[test]
    fn well_formed_checks() {
        assert!(job().is_well_formed());
        let mut j = job();
        j.procs = 0;
        assert!(!j.is_well_formed());
        let mut j = job();
        j.nodes.clear();
        assert!(!j.is_well_formed());
    }
}
