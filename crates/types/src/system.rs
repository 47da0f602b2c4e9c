//! System (cluster) descriptions and the group-1/group-2 split.
//!
//! The paper divides the ten LANL clusters into two hardware groups:
//! group 1 (seven systems of 4-way SMP nodes; 2848 nodes, 11392
//! processors in total) and group 2 (three NUMA systems with few nodes
//! but ~128 processors per node; 70 nodes, 8744 processors in total).

use crate::ids::SystemId;
use crate::time::{Duration, Timestamp};
use std::fmt;

/// The node hardware architecture of a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HardwareClass {
    /// 4-way symmetric-multiprocessing nodes (group-1 systems).
    Smp4Way,
    /// Non-uniform-memory-access nodes with ~128 processors (group-2).
    Numa,
}

impl fmt::Display for HardwareClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareClass::Smp4Way => f.write_str("4-way SMP"),
            HardwareClass::Numa => f.write_str("NUMA"),
        }
    }
}

/// The paper's two-way grouping of LANL systems by hardware architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemGroup {
    /// Seven SMP-based systems (LANL IDs 3, 4, 5, 6, 18, 19, 20).
    Group1,
    /// Three NUMA-based systems (LANL IDs 2, 16, 23).
    Group2,
}

impl SystemGroup {
    /// Both groups.
    pub const ALL: [SystemGroup; 2] = [SystemGroup::Group1, SystemGroup::Group2];

    /// The label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            SystemGroup::Group1 => "LANL Group-1",
            SystemGroup::Group2 => "LANL Group-2",
        }
    }

    /// The compact wire form used by serialized analysis requests
    /// (`"group1"` / `"group2"`); round-trips through [`FromStr`](std::str::FromStr).
    pub const fn wire(self) -> &'static str {
        match self {
            SystemGroup::Group1 => "group1",
            SystemGroup::Group2 => "group2",
        }
    }
}

impl fmt::Display for SystemGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`SystemGroup`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGroupError(String);

impl fmt::Display for ParseGroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown system group {:?}, expected group1 or group2",
            self.0
        )
    }
}

impl std::error::Error for ParseGroupError {}

impl std::str::FromStr for SystemGroup {
    type Err = ParseGroupError;

    /// Accepts the wire form (`group1`), the paper's label
    /// (`LANL Group-1`), and a few obvious shorthands (`g1`, `1`),
    /// all case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut key = s.to_ascii_lowercase();
        key.retain(|c| !matches!(c, ' ' | '-' | '_'));
        match key.strip_prefix("lanl").unwrap_or(&key) {
            "group1" | "g1" | "1" => Ok(SystemGroup::Group1),
            "group2" | "g2" | "2" => Ok(SystemGroup::Group2),
            _ => Err(ParseGroupError(s.to_owned())),
        }
    }
}

/// Static description of one system (cluster).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// LANL-style system number.
    pub id: SystemId,
    /// Human-readable name.
    pub name: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Processors per node.
    pub procs_per_node: u32,
    /// Node hardware architecture.
    pub hardware: HardwareClass,
    /// Start of the observation period.
    pub start: Timestamp,
    /// End of the observation period (exclusive).
    pub end: Timestamp,
    /// `true` if a machine-room layout file is available.
    pub has_layout: bool,
    /// `true` if a job/usage log is available.
    pub has_job_log: bool,
    /// `true` if periodic temperature samples are available.
    pub has_temperature: bool,
}

impl SystemConfig {
    /// The paper's hardware group for this system.
    pub const fn group(&self) -> SystemGroup {
        match self.hardware {
            HardwareClass::Smp4Way => SystemGroup::Group1,
            HardwareClass::Numa => SystemGroup::Group2,
        }
    }

    /// The observation span.
    pub fn observation_span(&self) -> Duration {
        self.end - self.start
    }

    /// The observation span in whole days (floored).
    pub fn observation_days(&self) -> i64 {
        self.observation_span().as_seconds() / crate::time::SECONDS_PER_DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig {
            id: SystemId::new(20),
            name: "system-20".into(),
            nodes: 512,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(1825.0),
            has_layout: true,
            has_job_log: true,
            has_temperature: true,
        }
    }

    #[test]
    fn grouping_follows_hardware() {
        let mut c = config();
        assert_eq!(c.group(), SystemGroup::Group1);
        c.hardware = HardwareClass::Numa;
        assert_eq!(c.group(), SystemGroup::Group2);
    }

    #[test]
    fn totals_and_span() {
        let c = config();
        assert_eq!(c.observation_days(), 1825);
        assert_eq!(c.observation_span(), Duration::from_days(1825.0));
    }

    #[test]
    fn group_labels() {
        assert_eq!(SystemGroup::Group1.label(), "LANL Group-1");
        assert_eq!(HardwareClass::Smp4Way.to_string(), "4-way SMP");
    }

    #[test]
    fn group_wire_roundtrip() {
        for g in SystemGroup::ALL {
            assert_eq!(g.wire().parse::<SystemGroup>().unwrap(), g);
            assert_eq!(g.label().parse::<SystemGroup>().unwrap(), g);
        }
        assert_eq!("G1".parse::<SystemGroup>().unwrap(), SystemGroup::Group1);
        assert_eq!("2".parse::<SystemGroup>().unwrap(), SystemGroup::Group2);
        assert!("group3".parse::<SystemGroup>().is_err());
    }
}
