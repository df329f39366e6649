//! Message descriptions handed to the simulators.

use std::fmt;

use wormhole_topology::graph::Graph;
use wormhole_topology::path::{Path, PathSet};

use crate::wormhole::SimError;

/// One message (worm) to route: a path, a length in flits, a release time,
/// and an arbitration priority.
#[derive(Clone, Debug)]
pub struct MessageSpec {
    /// The path the message follows (path selection is decoupled from
    /// scheduling, per §1.1).
    pub path: Path,
    /// Message length `L` in flits, header included (`L ≥ 1`).
    pub length: u32,
    /// Flit step at which the message becomes available in its injection
    /// buffer. Scheduling algorithms stagger these.
    pub release: u64,
    /// Arbitration rank for [`crate::config::Arbitration::PriorityRank`]
    /// (lower wins). Schedules set this to the color-class index.
    pub priority: u32,
}

impl MessageSpec {
    /// A message released at time 0 with priority 0.
    pub fn new(path: Path, length: u32) -> Self {
        assert!(length >= 1, "a message has at least its header flit");
        Self {
            path,
            length,
            release: 0,
            priority: 0,
        }
    }

    /// Sets the release time.
    pub fn release_at(mut self, t: u64) -> Self {
        self.release = t;
        self
    }

    /// Sets the arbitration priority.
    pub fn with_priority(mut self, p: u32) -> Self {
        self.priority = p;
        self
    }

    /// Path length (edges) of this message.
    pub fn hops(&self) -> u32 {
        self.path.len() as u32
    }

    /// Minimum completion time if never blocked: `hops + L − 1` flit steps
    /// after release.
    pub fn unblocked_time(&self) -> u64 {
        self.hops() as u64 + self.length as u64 - 1
    }
}

/// Why the simulator refused a [`MessageSpec`] (which one is the `id`
/// of the [`crate::wormhole::SimError::Spec`] around it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The path has no edge.
    EmptyPath,
    /// The path names an edge id the graph does not have.
    BadEdge,
    /// `length` is 0: a message has at least its header flit.
    ZeroLength,
    /// A live source emitted this id before.
    DuplicateId,
    /// A live source emitted the spec at step `now`, before its release.
    ReleasedEarly {
        /// The spec's release step.
        release: u64,
        /// The step of the `take_ready` call that emitted it.
        now: u64,
    },
    /// A live source that declared
    /// [`id_bound`](crate::source::TrafficSource::id_bound)` = Some(bound)`
    /// emitted an id at or above it.
    IdBeyondBound {
        /// The declared bound.
        bound: u32,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyPath => write!(f, "empty path"),
            SpecError::BadEdge => write!(f, "bad edge id"),
            SpecError::ZeroLength => write!(f, "zero length"),
            SpecError::DuplicateId => write!(f, "id emitted twice"),
            SpecError::ReleasedEarly { release, now } => {
                write!(f, "emitted before its release ({release} > {now})")
            }
            SpecError::IdBeyondBound { bound } => {
                write!(f, "id beyond the declared bound {bound}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The checks a spec passes once, where it enters a simulator: a
/// nonempty path over edges `graph` has, and at least the header flit.
pub fn check_spec(graph: &Graph, spec: &MessageSpec) -> Result<(), SpecError> {
    check_path(graph, &spec.path)?;
    if spec.length == 0 {
        return Err(SpecError::ZeroLength);
    }
    Ok(())
}

/// The path half of [`check_spec`]: nonempty, over edges `graph` has.
pub(crate) fn check_path(graph: &Graph, path: &Path) -> Result<(), SpecError> {
    let (edges, num_edges) = (path.edges(), graph.num_edges());
    if edges.is_empty() {
        return Err(SpecError::EmptyPath);
    }
    if edges.iter().any(|e| e.idx() >= num_edges) {
        return Err(SpecError::BadEdge);
    }
    Ok(())
}

/// [`check_spec`] over a whole slice, ids being the indices: the door
/// every batch enters by — [`crate::wormhole::simulate`]'s, and the
/// standalone baselines' ([`crate::restricted`], [`crate::cut_through`];
/// [`crate::store_forward`] checks its paths alone).
pub(crate) fn check_specs(graph: &Graph, specs: &[MessageSpec]) -> Result<(), SimError> {
    for (id, spec) in (0..).zip(specs) {
        check_spec(graph, spec).map_err(|error| SimError::Spec { id, error })?;
    }
    Ok(())
}

/// Converts a [`PathSet`] into uniform-length messages, all released at 0.
pub fn specs_from_paths(paths: &PathSet, length: u32) -> Vec<MessageSpec> {
    specs_from_path_slice(paths.paths(), length)
}

/// Converts a plain path slice into uniform-length messages, all
/// released at 0 — [`specs_from_paths`] for call sites that assemble
/// their paths outside a [`PathSet`].
pub fn specs_from_path_slice(paths: &[Path], length: u32) -> Vec<MessageSpec> {
    paths
        .iter()
        .map(|p| MessageSpec::new(p.clone(), length))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::graph::{GraphBuilder, NodeId};

    #[test]
    fn spec_builders() {
        let mut b = GraphBuilder::new(3);
        let e0 = b.add_edge(NodeId(0), NodeId(1));
        let e1 = b.add_edge(NodeId(1), NodeId(2));
        let _ = b.build();
        let m = MessageSpec::new(Path::new(vec![e0, e1]), 4)
            .release_at(10)
            .with_priority(2);
        assert_eq!(m.hops(), 2);
        assert_eq!(m.release, 10);
        assert_eq!(m.priority, 2);
        assert_eq!(m.unblocked_time(), 2 + 4 - 1);
    }

    #[test]
    #[should_panic(expected = "header flit")]
    fn zero_length_rejected() {
        let mut b = GraphBuilder::new(2);
        let e0 = b.add_edge(NodeId(0), NodeId(1));
        let _ = b.build();
        MessageSpec::new(Path::new(vec![e0]), 0);
    }
}
