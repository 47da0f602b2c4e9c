//! Machine-room layout: which rack each node sits in, and where.
//!
//! Group-1 LANL systems ship "machine layout" files giving each node's
//! position inside a rack and the rack's location in the server room.
//! Rack membership drives the Section III-B rack-correlation analysis;
//! position-in-rack is the `PIR` predictor of Table I.

use crate::ids::{NodeId, RackId};
use std::collections::BTreeMap;

/// The physical location of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeLocation {
    /// The rack the node is mounted in.
    pub rack: RackId,
    /// Vertical slot inside the rack: 1 = bottom, increasing upwards
    /// (LANL racks hold 5 nodes, so 1..=5).
    pub position_in_rack: u8,
    /// Machine-room aisle row of the rack.
    pub room_row: u16,
    /// Machine-room column of the rack within its row.
    pub room_col: u16,
}

/// The layout of one system: a node-to-location map.
///
/// # Examples
///
/// ```
/// use hpcfail_types::ids::{NodeId, RackId};
/// use hpcfail_types::layout::{MachineLayout, NodeLocation};
///
/// let mut layout = MachineLayout::new();
/// layout.place(NodeId::new(0), NodeLocation {
///     rack: RackId::new(0), position_in_rack: 1, room_row: 0, room_col: 0,
/// });
/// layout.place(NodeId::new(1), NodeLocation {
///     rack: RackId::new(0), position_in_rack: 2, room_row: 0, room_col: 0,
/// });
/// assert_eq!(layout.rack_of(NodeId::new(1)), Some(RackId::new(0)));
/// assert_eq!(layout.rack_members(RackId::new(0)).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineLayout {
    locations: BTreeMap<NodeId, NodeLocation>,
    racks: BTreeMap<RackId, Vec<NodeId>>,
}

impl MachineLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `node` at `location`, replacing any previous placement.
    pub fn place(&mut self, node: NodeId, location: NodeLocation) {
        if let Some(old) = self.locations.insert(node, location) {
            if let Some(members) = self.racks.get_mut(&old.rack) {
                members.retain(|&n| n != node);
            }
        }
        self.racks.entry(location.rack).or_default().push(node);
    }

    /// The location of `node`, if placed.
    pub fn location(&self, node: NodeId) -> Option<NodeLocation> {
        self.locations.get(&node).copied()
    }

    /// The rack `node` is mounted in, if placed.
    pub fn rack_of(&self, node: NodeId) -> Option<RackId> {
        self.location(node).map(|l| l.rack)
    }

    /// All nodes mounted in `rack`, in placement order.
    pub fn rack_members(&self, rack: RackId) -> &[NodeId] {
        self.racks.get(&rack).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nodes sharing a rack with `node`, excluding `node` itself.
    pub fn rack_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        match self.rack_of(node) {
            Some(rack) => self
                .rack_members(rack)
                .iter()
                .copied()
                .filter(|&n| n != node)
                .collect(),
            None => Vec::new(),
        }
    }

    /// All racks with at least one node, in id order.
    pub fn racks(&self) -> impl Iterator<Item = RackId> + '_ {
        self.racks.keys().copied()
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` if no node has been placed.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Iterates over `(node, location)` pairs in node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeLocation)> + Clone + '_ {
        self.locations.iter().map(|(&n, &l)| (n, l))
    }
}

impl FromIterator<(NodeId, NodeLocation)> for MachineLayout {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeLocation)>>(iter: I) -> Self {
        let mut layout = MachineLayout::new();
        for (node, loc) in iter {
            layout.place(node, loc);
        }
        layout
    }
}

impl Extend<(NodeId, NodeLocation)> for MachineLayout {
    fn extend<I: IntoIterator<Item = (NodeId, NodeLocation)>>(&mut self, iter: I) {
        for (node, loc) in iter {
            self.place(node, loc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(rack: u16, pos: u8) -> NodeLocation {
        NodeLocation {
            rack: RackId::new(rack),
            position_in_rack: pos,
            room_row: 0,
            room_col: rack,
        }
    }

    #[test]
    fn placement_and_lookup() {
        let layout: MachineLayout = (0..10u32)
            .map(|n| (NodeId::new(n), loc((n / 5) as u16, (n % 5 + 1) as u8)))
            .collect();
        assert_eq!(layout.len(), 10);
        assert_eq!(layout.rack_of(NodeId::new(7)), Some(RackId::new(1)));
        assert_eq!(layout.rack_members(RackId::new(0)).len(), 5);
        assert_eq!(layout.location(NodeId::new(3)).unwrap().position_in_rack, 4);
        assert_eq!(layout.racks().count(), 2);
    }

    #[test]
    fn rack_neighbors_exclude_self() {
        let layout: MachineLayout = (0..5u32)
            .map(|n| (NodeId::new(n), loc(0, (n + 1) as u8)))
            .collect();
        let neighbors = layout.rack_neighbors(NodeId::new(2));
        assert_eq!(neighbors.len(), 4);
        assert!(!neighbors.contains(&NodeId::new(2)));
    }

    #[test]
    fn replacement_moves_rack_membership() {
        let mut layout = MachineLayout::new();
        layout.place(NodeId::new(0), loc(0, 1));
        layout.place(NodeId::new(0), loc(1, 1));
        assert!(layout.rack_members(RackId::new(0)).is_empty());
        assert_eq!(layout.rack_members(RackId::new(1)), &[NodeId::new(0)]);
        assert_eq!(layout.len(), 1);
    }

    #[test]
    fn unplaced_node_has_no_neighbors() {
        let layout = MachineLayout::new();
        assert!(layout.is_empty());
        assert!(layout.rack_neighbors(NodeId::new(9)).is_empty());
        assert_eq!(layout.rack_of(NodeId::new(9)), None);
    }
}
