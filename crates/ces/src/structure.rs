//! Causal event structures (CES).
//!
//! A CES is an acyclic graph whose nodes are *event occurrences* (an event
//! name plus an occurrence index) related by AND-causality: an occurrence can
//! fire only after all of its direct predecessors have fired, and its firing
//! time lies within a delay interval of its enabling time (the latest
//! predecessor firing time).

use std::collections::HashSet;
use std::fmt;

use tts::{DelayInterval, EventId};

/// Index of a node (event occurrence) within a [`Ces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a raw index.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An event occurrence: the `occurrence`-th firing (0-based) of `event` since
/// the start of the trace the structure was extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Occurrence {
    /// The event.
    pub event: EventId,
    /// 0-based occurrence index of the event within the trace.
    pub occurrence: u32,
}

impl Occurrence {
    /// Creates an occurrence.
    pub fn new(event: EventId, occurrence: u32) -> Self {
        Occurrence { event, occurrence }
    }

    /// The first occurrence of `event`.
    pub fn first(event: EventId) -> Self {
        Occurrence::new(event, 0)
    }
}

impl fmt::Display for Occurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.event, self.occurrence)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeData {
    occurrence: Occurrence,
    label: String,
    delay: DelayInterval,
}

/// Error returned when a [`CesBuilder`] would produce an invalid structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildCesError {
    /// The causality relation contains a cycle involving the named node.
    Cyclic(String),
    /// An arc references a node that does not exist.
    UnknownNode(NodeId),
}

impl fmt::Display for BuildCesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCesError::Cyclic(label) => {
                write!(f, "event structure has a causality cycle through `{label}`")
            }
            BuildCesError::UnknownNode(n) => write!(f, "arc references unknown node {n}"),
        }
    }
}

impl std::error::Error for BuildCesError {}

/// Builder for [`Ces`].
#[derive(Debug, Clone, Default)]
pub struct CesBuilder {
    nodes: Vec<NodeData>,
    causal: Vec<(NodeId, NodeId)>,
}

impl CesBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CesBuilder::default()
    }

    /// Adds an occurrence with a display label and delay interval; returns its
    /// node id.
    pub fn add_node(
        &mut self,
        occurrence: Occurrence,
        label: impl Into<String>,
        delay: DelayInterval,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            occurrence,
            label: label.into(),
            delay,
        });
        id
    }

    /// Adds a causal (AND) arc: `to` is enabled only after `from` fires.
    pub fn add_causal_arc(&mut self, from: NodeId, to: NodeId) {
        if !self.causal.contains(&(from, to)) {
            self.causal.push((from, to));
        }
    }

    /// Finalises the structure.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCesError`] if an arc references an unknown node or the
    /// causal graph has a cycle.
    pub fn build(self) -> Result<Ces, BuildCesError> {
        let n = self.nodes.len();
        for &(a, b) in &self.causal {
            if a.index() >= n || b.index() >= n {
                return Err(BuildCesError::UnknownNode(if a.index() >= n {
                    a
                } else {
                    b
                }));
            }
        }
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(a, b) in &self.causal {
            if !preds[b.index()].contains(&a) {
                preds[b.index()].push(a);
                succs[a.index()].push(b);
            }
        }
        let ces = Ces {
            nodes: self.nodes,
            preds,
            succs,
        };
        match ces.topological_order() {
            Some(_) => Ok(ces),
            None => {
                // Find some node on a cycle for the error message.
                let label = ces
                    .nodes
                    .first()
                    .map(|d| d.label.clone())
                    .unwrap_or_default();
                Err(BuildCesError::Cyclic(label))
            }
        }
    }
}

/// A causal event structure.
///
/// # Examples
///
/// ```
/// use ces::{CesBuilder, Occurrence};
/// use tts::{DelayInterval, EventId, Time};
///
/// let e = |i| EventId::from_index(i);
/// let d = DelayInterval::new(Time::new(1), Time::new(2))?;
/// let mut b = CesBuilder::new();
/// let a = b.add_node(Occurrence::first(e(0)), "a", d);
/// let c = b.add_node(Occurrence::first(e(1)), "c", d);
/// b.add_causal_arc(a, c);
/// let ces = b.build()?;
/// assert_eq!(ces.node_count(), 2);
/// assert_eq!(ces.predecessors(c), &[a]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ces {
    nodes: Vec<NodeData>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
}

impl Ces {
    /// Number of occurrences.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the structure has no occurrences.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// The occurrence carried by a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this structure.
    pub fn occurrence(&self, node: NodeId) -> Occurrence {
        self.nodes[node.index()].occurrence
    }

    /// The display label of a node (usually the event name).
    pub fn label(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].label
    }

    /// The delay interval of a node.
    pub fn delay(&self, node: NodeId) -> DelayInterval {
        self.nodes[node.index()].delay
    }

    /// Direct causal predecessors of a node.
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        &self.preds[node.index()]
    }

    /// Direct causal successors of a node.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node.index()]
    }

    /// A topological order of the causal graph, or `None` if it has a
    /// cycle.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut stack: Vec<NodeId> = self
            .nodes()
            .filter(|node| indegree[node.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(node) = stack.pop() {
            order.push(node);
            for &s in &self.succs[node.index()] {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    stack.push(s);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// The set of causal ancestors of `node` (not including `node`).
    pub fn ancestors(&self, node: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            for &p in &self.preds[x.index()] {
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Returns `true` if `a` causally precedes `b` (transitively).
    pub fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        self.ancestors(b).contains(&a)
    }

    /// Renders the structure with labels and arcs, for diagnostics and
    /// reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for node in self.nodes() {
            let preds: Vec<&str> = self
                .predecessors(node)
                .iter()
                .map(|&p| self.label(p))
                .collect();
            out.push_str(&format!(
                "{} {}  <- causal {:?}\n",
                self.label(node),
                self.delay(node),
                preds
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts::Time;

    fn delay(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    fn ev(i: usize) -> EventId {
        EventId::from_index(i)
    }

    #[test]
    fn build_simple_chain() {
        let mut b = CesBuilder::new();
        let a = b.add_node(Occurrence::first(ev(0)), "a", delay(1, 2));
        let c = b.add_node(Occurrence::first(ev(1)), "c", delay(2, 3));
        let d = b.add_node(Occurrence::first(ev(2)), "d", delay(0, 1));
        b.add_causal_arc(a, c);
        b.add_causal_arc(c, d);
        let ces = b.build().unwrap();
        assert_eq!(ces.node_count(), 3);
        assert!(ces.precedes(a, d));
        assert!(!ces.precedes(d, a));
        assert_eq!(ces.successors(a), &[c]);
        assert_eq!(ces.ancestors(d).len(), 2);
        assert_eq!(ces.topological_order().unwrap().len(), 3);
        assert!(ces.render().contains("a [1,2]"));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut b = CesBuilder::new();
        let a = b.add_node(Occurrence::first(ev(0)), "a", delay(1, 1));
        let c = b.add_node(Occurrence::first(ev(1)), "c", delay(1, 1));
        b.add_causal_arc(a, c);
        b.add_causal_arc(c, a);
        assert!(matches!(b.build(), Err(BuildCesError::Cyclic(_))));
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut b = CesBuilder::new();
        let a = b.add_node(Occurrence::first(ev(0)), "a", delay(1, 1));
        b.add_causal_arc(a, NodeId::from_index(7));
        assert!(matches!(b.build(), Err(BuildCesError::UnknownNode(_))));
    }
}
