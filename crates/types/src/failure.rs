//! The failure taxonomy and failure records.
//!
//! LANL classifies every node outage into one of six high-level root-cause
//! categories ([`RootCause`]); many records additionally carry a lower-level
//! sub-cause ([`SubCause`]): the hardware component at fault
//! ([`HardwareComponent`]), the software subsystem at fault
//! ([`SoftwareCause`]) or the environmental problem ([`EnvironmentCause`]).
//!
//! Analyses select sets of failures through [`FailureClass`], which unifies
//! "any failure", "failures with root cause X" and "failures with sub-cause
//! Y" behind a single matcher.

use crate::ids::{NodeId, SystemId};
use crate::time::{Duration, Timestamp};
use std::fmt;
use std::str::FromStr;

/// Error returned when parsing a taxonomy label fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCauseError {
    kind: &'static str,
    input: String,
}

impl ParseCauseError {
    fn new(kind: &'static str, input: &str) -> Self {
        ParseCauseError {
            kind,
            input: input.to_owned(),
        }
    }
}

impl fmt::Display for ParseCauseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} label {:?}", self.kind, self.input)
    }
}

impl std::error::Error for ParseCauseError {}

/// The six high-level root-cause categories used by LANL operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RootCause {
    /// Facility problems: power outages, power spikes, UPS and chiller
    /// failures, and other machine-room environment issues.
    Environment,
    /// Hardware faults (the most common category; ~60% of LANL failures).
    Hardware,
    /// Mistakes by operators or users with administrative effect.
    HumanError,
    /// Interconnect and network-interface problems.
    Network,
    /// System-software faults, including file/storage-system failures.
    Software,
    /// Root cause never determined.
    Undetermined,
}

impl RootCause {
    /// All root causes in the order the paper's figures use
    /// (ENV, HW, HUMAN, NET, UNDET, SW).
    pub const ALL: [RootCause; 6] = [
        RootCause::Environment,
        RootCause::Hardware,
        RootCause::HumanError,
        RootCause::Network,
        RootCause::Undetermined,
        RootCause::Software,
    ];

    /// The short uppercase label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            RootCause::Environment => "ENV",
            RootCause::Hardware => "HW",
            RootCause::HumanError => "HUMAN",
            RootCause::Network => "NET",
            RootCause::Software => "SW",
            RootCause::Undetermined => "UNDET",
        }
    }
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for RootCause {
    type Err = ParseCauseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "ENV" | "ENVIRONMENT" => Ok(RootCause::Environment),
            "HW" | "HARDWARE" => Ok(RootCause::Hardware),
            "HUMAN" | "HUMANERROR" | "HUMAN_ERROR" => Ok(RootCause::HumanError),
            "NET" | "NETWORK" => Ok(RootCause::Network),
            "SW" | "SOFTWARE" => Ok(RootCause::Software),
            "UNDET" | "UNDETERMINED" | "UNKNOWN" => Ok(RootCause::Undetermined),
            _ => Err(ParseCauseError::new("root cause", s)),
        }
    }
}

/// The hardware component responsible for a hardware failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HardwareComponent {
    /// Processor faults (~40% of LANL hardware failures).
    Cpu,
    /// Memory DIMM faults (~20% of LANL hardware failures).
    MemoryDimm,
    /// Node-board (motherboard) faults.
    NodeBoard,
    /// Per-node power-supply-unit faults.
    PowerSupply,
    /// Cooling-fan faults.
    Fan,
    /// MSC (module service controller) board faults.
    MscBoard,
    /// Midplane faults.
    Midplane,
    /// Network-interface-card faults.
    Nic,
    /// Local-disk faults.
    Disk,
    /// Any other or unrecorded hardware component.
    Other,
}

impl HardwareComponent {
    /// All components, in the order the paper's figures use.
    pub const ALL: [HardwareComponent; 10] = [
        HardwareComponent::PowerSupply,
        HardwareComponent::MemoryDimm,
        HardwareComponent::NodeBoard,
        HardwareComponent::Fan,
        HardwareComponent::Cpu,
        HardwareComponent::MscBoard,
        HardwareComponent::Midplane,
        HardwareComponent::Nic,
        HardwareComponent::Disk,
        HardwareComponent::Other,
    ];

    /// The label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            HardwareComponent::Cpu => "CPU",
            HardwareComponent::MemoryDimm => "Memory",
            HardwareComponent::NodeBoard => "NodeBoard",
            HardwareComponent::PowerSupply => "PowerSupply",
            HardwareComponent::Fan => "Fan",
            HardwareComponent::MscBoard => "MSCBoard",
            HardwareComponent::Midplane => "MidPlane",
            HardwareComponent::Nic => "NIC",
            HardwareComponent::Disk => "Disk",
            HardwareComponent::Other => "OtherHW",
        }
    }
}

impl fmt::Display for HardwareComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for HardwareComponent {
    type Err = ParseCauseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "CPU" => Ok(HardwareComponent::Cpu),
            "MEMORY" | "MEM" | "DIMM" | "MEMORYDIMM" => Ok(HardwareComponent::MemoryDimm),
            "NODEBOARD" | "NODE_BOARD" => Ok(HardwareComponent::NodeBoard),
            "POWERSUPPLY" | "POWER_SUPPLY" | "PSU" => Ok(HardwareComponent::PowerSupply),
            "FAN" => Ok(HardwareComponent::Fan),
            "MSCBOARD" | "MSC_BOARD" | "MSC" => Ok(HardwareComponent::MscBoard),
            "MIDPLANE" => Ok(HardwareComponent::Midplane),
            "NIC" => Ok(HardwareComponent::Nic),
            "DISK" => Ok(HardwareComponent::Disk),
            "OTHERHW" | "OTHER" => Ok(HardwareComponent::Other),
            _ => Err(ParseCauseError::new("hardware component", s)),
        }
    }
}

/// The software subsystem responsible for a software failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SoftwareCause {
    /// Distributed storage system (DST).
    Dst,
    /// Parallel file system (PFS).
    Pfs,
    /// Cluster file system (CFS).
    Cfs,
    /// Operating-system faults.
    Os,
    /// Problems during patch installation.
    PatchInstall,
    /// Any other or unrecorded software subsystem.
    Other,
}

impl SoftwareCause {
    /// All software sub-causes, in the order Figure 11 uses.
    pub const ALL: [SoftwareCause; 6] = [
        SoftwareCause::Dst,
        SoftwareCause::Other,
        SoftwareCause::PatchInstall,
        SoftwareCause::Os,
        SoftwareCause::Pfs,
        SoftwareCause::Cfs,
    ];

    /// The label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            SoftwareCause::Dst => "DST",
            SoftwareCause::Pfs => "PFS",
            SoftwareCause::Cfs => "CFS",
            SoftwareCause::Os => "OS",
            SoftwareCause::PatchInstall => "PatchInstl",
            SoftwareCause::Other => "OtherSW",
        }
    }
}

impl fmt::Display for SoftwareCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SoftwareCause {
    type Err = ParseCauseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "DST" => Ok(SoftwareCause::Dst),
            "PFS" => Ok(SoftwareCause::Pfs),
            "CFS" => Ok(SoftwareCause::Cfs),
            "OS" => Ok(SoftwareCause::Os),
            "PATCHINSTL" | "PATCHINSTALL" | "PATCH_INSTALL" => Ok(SoftwareCause::PatchInstall),
            "OTHERSW" | "OTHER" => Ok(SoftwareCause::Other),
            _ => Err(ParseCauseError::new("software cause", s)),
        }
    }
}

/// The environmental problem behind an environment failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnvironmentCause {
    /// Complete loss of facility power.
    PowerOutage,
    /// Transient over-voltage event.
    PowerSpike,
    /// Failure in the uninterruptible-power-supply system.
    Ups,
    /// Failure in the chiller (machine-room cooling) system.
    Chiller,
    /// Any other machine-room environment problem.
    Other,
}

impl EnvironmentCause {
    /// All environment sub-causes, in the order Figure 9 uses.
    pub const ALL: [EnvironmentCause; 5] = [
        EnvironmentCause::PowerOutage,
        EnvironmentCause::PowerSpike,
        EnvironmentCause::Ups,
        EnvironmentCause::Chiller,
        EnvironmentCause::Other,
    ];

    /// The label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            EnvironmentCause::PowerOutage => "PowerOutage",
            EnvironmentCause::PowerSpike => "PowerSpike",
            EnvironmentCause::Ups => "UPS",
            EnvironmentCause::Chiller => "Chillers",
            EnvironmentCause::Other => "Environment",
        }
    }

    /// `true` for the three power-related environment sub-causes
    /// (outage, spike, UPS).
    pub const fn is_power_related(self) -> bool {
        matches!(
            self,
            EnvironmentCause::PowerOutage | EnvironmentCause::PowerSpike | EnvironmentCause::Ups
        )
    }
}

impl fmt::Display for EnvironmentCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for EnvironmentCause {
    type Err = ParseCauseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "POWEROUTAGE" | "POWER_OUTAGE" | "OUTAGE" => Ok(EnvironmentCause::PowerOutage),
            "POWERSPIKE" | "POWER_SPIKE" | "SPIKE" => Ok(EnvironmentCause::PowerSpike),
            "UPS" => Ok(EnvironmentCause::Ups),
            "CHILLERS" | "CHILLER" => Ok(EnvironmentCause::Chiller),
            "ENVIRONMENT" | "OTHERENV" | "OTHER" => Ok(EnvironmentCause::Other),
            _ => Err(ParseCauseError::new("environment cause", s)),
        }
    }
}

/// The optional lower-level cause attached to a failure record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SubCause {
    /// No lower-level information recorded.
    #[default]
    None,
    /// Hardware failure with a known component.
    Hardware(HardwareComponent),
    /// Software failure with a known subsystem.
    Software(SoftwareCause),
    /// Environment failure with a known problem type.
    Environment(EnvironmentCause),
}

impl SubCause {
    /// `true` when the sub-cause is consistent with the given root cause.
    ///
    /// [`SubCause::None`] is consistent with every root cause; a typed
    /// sub-cause is consistent only with the matching root-cause category.
    pub const fn consistent_with(self, root: RootCause) -> bool {
        match self {
            SubCause::None => true,
            SubCause::Hardware(_) => matches!(root, RootCause::Hardware),
            SubCause::Software(_) => matches!(root, RootCause::Software),
            SubCause::Environment(_) => matches!(root, RootCause::Environment),
        }
    }

    /// A short label: `"-"` for none, the sub-cause label otherwise.
    pub const fn label(self) -> &'static str {
        match self {
            SubCause::None => "-",
            SubCause::Hardware(c) => c.label(),
            SubCause::Software(c) => c.label(),
            SubCause::Environment(c) => c.label(),
        }
    }
}

impl fmt::Display for SubCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<HardwareComponent> for SubCause {
    fn from(c: HardwareComponent) -> Self {
        SubCause::Hardware(c)
    }
}

impl From<SoftwareCause> for SubCause {
    fn from(c: SoftwareCause) -> Self {
        SubCause::Software(c)
    }
}

impl From<EnvironmentCause> for SubCause {
    fn from(c: EnvironmentCause) -> Self {
        SubCause::Environment(c)
    }
}

/// One node outage caused by a failure.
///
/// Mirrors a row of the LANL failure logs: which node of which system went
/// down, when, and why (at both taxonomy levels). The optional `downtime`
/// records how long the node was unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailureRecord {
    /// The system the failed node belongs to.
    pub system: SystemId,
    /// The failed node.
    pub node: NodeId,
    /// When the outage started.
    pub time: Timestamp,
    /// High-level root-cause category assigned by operators.
    pub root_cause: RootCause,
    /// Lower-level cause, when recorded.
    pub sub_cause: SubCause,
    /// Repair/downtime duration, when recorded.
    pub downtime: Option<Duration>,
}

impl FailureRecord {
    /// Creates a failure record with no downtime information.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `sub_cause` is inconsistent with
    /// `root_cause` (e.g. a hardware component on a network failure).
    pub fn new(
        system: SystemId,
        node: NodeId,
        time: Timestamp,
        root_cause: RootCause,
        sub_cause: SubCause,
    ) -> Self {
        debug_assert!(
            sub_cause.consistent_with(root_cause),
            "sub-cause {sub_cause} inconsistent with root cause {root_cause}"
        );
        FailureRecord {
            system,
            node,
            time,
            root_cause,
            sub_cause,
            downtime: None,
        }
    }

    /// Returns a copy with the downtime set.
    pub fn with_downtime(mut self, downtime: Duration) -> Self {
        self.downtime = Some(downtime);
        self
    }
}

/// A selector over failure records, unifying the taxonomy levels.
///
/// # Examples
///
/// ```
/// use hpcfail_types::prelude::*;
///
/// let mem = FailureRecord::new(
///     SystemId::new(18),
///     NodeId::new(3),
///     Timestamp::from_days(1.0),
///     RootCause::Hardware,
///     SubCause::Hardware(HardwareComponent::MemoryDimm),
/// );
/// assert!(FailureClass::Any.matches(&mem));
/// assert!(FailureClass::Hw(HardwareComponent::MemoryDimm).matches(&mem));
/// assert!(!FailureClass::Hw(HardwareComponent::Cpu).matches(&mem));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Matches every failure.
    Any,
    /// Matches failures with the given root cause.
    Root(RootCause),
    /// Matches hardware failures attributed to the given component.
    Hw(HardwareComponent),
    /// Matches software failures attributed to the given subsystem.
    Sw(SoftwareCause),
    /// Matches environment failures attributed to the given problem.
    Env(EnvironmentCause),
}

impl FailureClass {
    /// `true` when the record belongs to this class.
    pub fn matches(self, record: &FailureRecord) -> bool {
        match self {
            FailureClass::Any => true,
            FailureClass::Root(root) => record.root_cause == root,
            FailureClass::Hw(c) => record.sub_cause == SubCause::Hardware(c),
            FailureClass::Sw(c) => record.sub_cause == SubCause::Software(c),
            FailureClass::Env(c) => record.sub_cause == SubCause::Environment(c),
        }
    }

    /// A human-readable label for figure axes.
    pub const fn label(self) -> &'static str {
        match self {
            FailureClass::Any => "ANY",
            FailureClass::Root(r) => r.label(),
            FailureClass::Hw(c) => c.label(),
            FailureClass::Sw(c) => c.label(),
            FailureClass::Env(c) => c.label(),
        }
    }

    /// The eight trigger classes of Figures 1-3: the six root causes plus
    /// memory and CPU hardware failures.
    pub const FIGURE1: [FailureClass; 8] = [
        FailureClass::Root(RootCause::Environment),
        FailureClass::Root(RootCause::Hardware),
        FailureClass::Root(RootCause::HumanError),
        FailureClass::Root(RootCause::Network),
        FailureClass::Root(RootCause::Undetermined),
        FailureClass::Root(RootCause::Software),
        FailureClass::Hw(HardwareComponent::MemoryDimm),
        FailureClass::Hw(HardwareComponent::Cpu),
    ];
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FailureClass {
    /// The unambiguous wire form used by serialized analysis requests:
    /// `"any"`, or the category prefix and label joined by a colon
    /// (`"root:HW"`, `"hw:Memory"`, `"sw:OS"`, `"env:UPS"`). Unlike
    /// [`FailureClass::label`], every wire form parses back via
    /// [`FromStr`], even where labels collide across categories.
    pub fn wire(self) -> String {
        match self {
            FailureClass::Any => "any".to_owned(),
            FailureClass::Root(r) => format!("root:{}", r.label()),
            FailureClass::Hw(c) => format!("hw:{}", c.label()),
            FailureClass::Sw(c) => format!("sw:{}", c.label()),
            FailureClass::Env(c) => format!("env:{}", c.label()),
        }
    }
}

impl FromStr for FailureClass {
    type Err = ParseCauseError;

    /// Parses the wire form produced by [`FailureClass::wire`]. The
    /// prefix is case-insensitive and a bare root-cause label (e.g.
    /// `"HW"`) is accepted as shorthand for `root:`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("any") {
            return Ok(FailureClass::Any);
        }
        let Some((prefix, rest)) = s.split_once(':') else {
            // Bare root-cause labels are common in hand-written queries.
            return s.parse().map(FailureClass::Root);
        };
        match prefix.to_ascii_lowercase().as_str() {
            "root" => rest.parse().map(FailureClass::Root),
            "hw" => rest.parse().map(FailureClass::Hw),
            "sw" => rest.parse().map(FailureClass::Sw),
            "env" => rest.parse().map(FailureClass::Env),
            _ => Err(ParseCauseError::new("failure class", s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(root: RootCause, sub: SubCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(20),
            NodeId::new(5),
            Timestamp::from_days(10.0),
            root,
            sub,
        )
    }

    #[test]
    fn failure_class_wire_roundtrip() {
        let mut all: Vec<FailureClass> = vec![FailureClass::Any];
        all.extend(RootCause::ALL.map(FailureClass::Root));
        all.extend(HardwareComponent::ALL.map(FailureClass::Hw));
        all.extend(SoftwareCause::ALL.map(FailureClass::Sw));
        all.extend(EnvironmentCause::ALL.map(FailureClass::Env));
        for class in all {
            assert_eq!(class.wire().parse::<FailureClass>().unwrap(), class);
        }
        // Bare root labels and case-insensitive prefixes are accepted.
        assert_eq!(
            "HW".parse::<FailureClass>().unwrap(),
            FailureClass::Root(RootCause::Hardware)
        );
        assert_eq!(
            "HW:memory".parse::<FailureClass>().unwrap(),
            FailureClass::Hw(HardwareComponent::MemoryDimm)
        );
        assert!("disk:oops".parse::<FailureClass>().is_err());
        assert!("hw:oops".parse::<FailureClass>().is_err());
    }

    #[test]
    fn root_cause_parse_roundtrip() {
        for r in RootCause::ALL {
            assert_eq!(r.label().parse::<RootCause>().unwrap(), r);
        }
        assert_eq!(
            "hardware".parse::<RootCause>().unwrap(),
            RootCause::Hardware
        );
        assert!("disk".parse::<RootCause>().is_err());
    }

    #[test]
    fn hardware_component_parse_roundtrip() {
        for c in HardwareComponent::ALL {
            assert_eq!(c.label().parse::<HardwareComponent>().unwrap(), c);
        }
        assert_eq!(
            "dimm".parse::<HardwareComponent>().unwrap(),
            HardwareComponent::MemoryDimm
        );
    }

    #[test]
    fn software_cause_parse_roundtrip() {
        for c in SoftwareCause::ALL {
            assert_eq!(c.label().parse::<SoftwareCause>().unwrap(), c);
        }
    }

    #[test]
    fn environment_cause_parse_roundtrip() {
        for c in EnvironmentCause::ALL {
            assert_eq!(c.label().parse::<EnvironmentCause>().unwrap(), c);
        }
    }

    #[test]
    fn power_related_environment_causes() {
        assert!(EnvironmentCause::PowerOutage.is_power_related());
        assert!(EnvironmentCause::PowerSpike.is_power_related());
        assert!(EnvironmentCause::Ups.is_power_related());
        assert!(!EnvironmentCause::Chiller.is_power_related());
        assert!(!EnvironmentCause::Other.is_power_related());
    }

    #[test]
    fn sub_cause_consistency() {
        assert!(SubCause::None.consistent_with(RootCause::Network));
        assert!(SubCause::Hardware(HardwareComponent::Fan).consistent_with(RootCause::Hardware));
        assert!(!SubCause::Hardware(HardwareComponent::Fan).consistent_with(RootCause::Software));
        assert!(SubCause::Software(SoftwareCause::Dst).consistent_with(RootCause::Software));
        assert!(
            SubCause::Environment(EnvironmentCause::Ups).consistent_with(RootCause::Environment)
        );
        assert!(!SubCause::Environment(EnvironmentCause::Ups).consistent_with(RootCause::Hardware));
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    #[cfg(debug_assertions)]
    fn inconsistent_record_panics_in_debug() {
        let _ = record(
            RootCause::Network,
            SubCause::Hardware(HardwareComponent::Cpu),
        );
    }

    #[test]
    fn class_matching() {
        let hw = record(
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::Cpu),
        );
        let sw = record(RootCause::Software, SubCause::Software(SoftwareCause::Pfs));
        let env = record(
            RootCause::Environment,
            SubCause::Environment(EnvironmentCause::Ups),
        );
        let bare = record(RootCause::Undetermined, SubCause::None);

        assert!(FailureClass::Any.matches(&hw));
        assert!(FailureClass::Any.matches(&bare));
        assert!(FailureClass::Root(RootCause::Hardware).matches(&hw));
        assert!(!FailureClass::Root(RootCause::Hardware).matches(&sw));
        assert!(FailureClass::Hw(HardwareComponent::Cpu).matches(&hw));
        assert!(!FailureClass::Hw(HardwareComponent::MemoryDimm).matches(&hw));
        assert!(FailureClass::Sw(SoftwareCause::Pfs).matches(&sw));
        assert!(FailureClass::Env(EnvironmentCause::Ups).matches(&env));
        assert!(!FailureClass::Env(EnvironmentCause::PowerOutage).matches(&env));
    }

    #[test]
    fn class_without_subcause_only_matches_root() {
        let hw_no_sub = record(RootCause::Hardware, SubCause::None);
        assert!(FailureClass::Root(RootCause::Hardware).matches(&hw_no_sub));
        assert!(!FailureClass::Hw(HardwareComponent::Cpu).matches(&hw_no_sub));
    }

    #[test]
    fn with_downtime_sets_field() {
        let r =
            record(RootCause::Hardware, SubCause::None).with_downtime(Duration::from_hours(4.0));
        assert_eq!(r.downtime, Some(Duration::from_hours(4.0)));
    }

    #[test]
    fn figure1_classes_cover_roots_plus_mem_cpu() {
        assert_eq!(FailureClass::FIGURE1.len(), 8);
        let roots = FailureClass::FIGURE1
            .iter()
            .filter(|c| matches!(c, FailureClass::Root(_)))
            .count();
        assert_eq!(roots, 6);
    }
}
