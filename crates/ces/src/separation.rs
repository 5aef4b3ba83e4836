//! Maximum-separation analysis on causal event structures.
//!
//! Given an acyclic event structure with AND-causality and per-occurrence
//! delay intervals, the firing time of an occurrence `e` is
//! `t(e) = enab(e) + d(e)` with `d(e) ∈ [δl(e), δu(e)]` and
//! `enab(e) = max{ t(p) | p direct predecessor }` (0 for sources). The
//! *maximum separation* between two occurrences `a` and `b` is
//! `max over all admissible delay choices of (t(a) − t(b))`.
//!
//! If `max(t(a) − t(b)) < 0` then `a` fires strictly before `b` in every
//! timed execution consistent with the structure — this is how absolute
//! delay information is abstracted into relative-timing constraints
//! (McMillan & Dill [10], Peña et al. [13]).
//!
//! The implementation enumerates source-to-`a` paths: for a fixed path `π`
//! the adversary's optimal choice is `d(v) = δu(v)` on `π` and `d(v) = δl(v)`
//! elsewhere (raising a delay on `π` increases `t(a)` at least as much as
//! `t(b)`, lowering one off `π` can only decrease `t(b)`), so the optimum is
//! attained at one of those box vertices. Infinite upper bounds are handled by
//! evaluating the bound at two large finite caps and detecting growth.
//!
//! A [`SeparationAnalysis`] sorts its structure topologically once and
//! shares the order with every query. A query enumerates the paths to `a`
//! once and evaluates both caps over them; past the path limit it falls
//! back, at both caps, to a conservative bound that needs no paths.

use std::collections::HashMap;
use std::fmt;

use tts::{Bound, Time};

use crate::structure::{Ces, NodeId};

/// Result of a separation query: `max(t(a) − t(b))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Separation {
    /// The separation is bounded by the contained value.
    Finite(Time),
    /// The separation can grow without bound.
    Unbounded,
}

impl Separation {
    /// Returns `true` if the separation is strictly negative, i.e. `a` always
    /// fires strictly before `b`.
    pub fn is_negative(&self) -> bool {
        matches!(self, Separation::Finite(t) if *t < Time::ZERO)
    }

    /// Returns the finite value, if any.
    pub fn finite(&self) -> Option<Time> {
        match self {
            Separation::Finite(t) => Some(*t),
            Separation::Unbounded => None,
        }
    }
}

impl fmt::Display for Separation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Separation::Finite(t) => write!(f, "{t}"),
            Separation::Unbounded => write!(f, "inf"),
        }
    }
}

/// Options for the separation analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeparationOptions {
    /// Maximum number of source-to-target paths to enumerate before falling
    /// back to the conservative (over-approximate) bound.
    pub path_limit: usize,
}

impl Default for SeparationOptions {
    fn default() -> Self {
        SeparationOptions { path_limit: 20_000 }
    }
}

/// Analysis object caching per-structure data for repeated separation
/// queries.
///
/// # Examples
///
/// ```
/// use ces::{CesBuilder, Occurrence, SeparationAnalysis};
/// use tts::{DelayInterval, EventId, Time};
///
/// // a -> c, b independent: c fires at least 2 after a, b within [1,2] of
/// // time 0, so max(t(b) - t(c)) = 2 - (1 + 2) = -1 < 0: b always precedes c.
/// let d12 = DelayInterval::new(Time::new(1), Time::new(2))?;
/// let d23 = DelayInterval::new(Time::new(2), Time::new(3))?;
/// let mut builder = CesBuilder::new();
/// let a = builder.add_node(Occurrence::first(EventId::from_index(0)), "a", d12.clone());
/// let b = builder.add_node(Occurrence::first(EventId::from_index(1)), "b", d12);
/// let c = builder.add_node(Occurrence::first(EventId::from_index(2)), "c", d23);
/// builder.add_causal_arc(a, c);
/// let ces = builder.build()?;
/// let analysis = SeparationAnalysis::new(&ces);
/// assert!(analysis.max_separation(b, c).is_negative());
/// assert!(!analysis.max_separation(c, b).is_negative());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SeparationAnalysis<'a> {
    ces: &'a Ces,
    options: SeparationOptions,
    /// Sum of all finite upper bounds plus slack, used to cap infinite bounds.
    base_cap: i64,
    /// The structure's topological order, shared by every arrival-time
    /// evaluation.
    order: Vec<NodeId>,
    /// Every node's lower delay bound, indexed by node.
    lower: Vec<i64>,
    cache: std::cell::RefCell<HashMap<(NodeId, NodeId), Separation>>,
}

impl<'a> SeparationAnalysis<'a> {
    /// Creates an analysis with default options.
    pub fn new(ces: &'a Ces) -> Self {
        Self::with_options(ces, SeparationOptions::default())
    }

    /// Creates an analysis with explicit options.
    pub fn with_options(ces: &'a Ces, options: SeparationOptions) -> Self {
        let mut base_cap: i64 = 1;
        for node in ces.nodes() {
            let d = ces.delay(node);
            match d.upper() {
                Bound::Finite(u) => base_cap = base_cap.saturating_add(u.as_i64().max(1)),
                Bound::Infinite => base_cap = base_cap.saturating_add(d.lower().as_i64().max(1)),
            }
        }
        SeparationAnalysis {
            ces,
            options,
            base_cap: base_cap.max(16),
            order: ces
                .topological_order()
                .expect("event structures are acyclic by construction"),
            lower: ces.nodes().map(|v| ces.delay(v).lower().as_i64()).collect(),
            cache: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// Computes `max(t(a) − t(b))` over all timings admitted by the
    /// structure. Results are cached per `(a, b)` pair.
    pub fn max_separation(&self, a: NodeId, b: NodeId) -> Separation {
        if let Some(&s) = self.cache.borrow().get(&(a, b)) {
            return s;
        }
        let s = self.compute(a, b);
        self.cache.borrow_mut().insert((a, b), s);
        s
    }

    /// Returns `true` if `a` fires strictly before `b` in every admissible
    /// timing, i.e. `max(t(a) − t(b)) < 0` (the value `t(a) − t(b)` is
    /// negative for every delay choice).
    pub fn always_precedes(&self, a: NodeId, b: NodeId) -> bool {
        self.max_separation(a, b).is_negative()
    }

    /// Evaluates the separation at two caps for infinite upper bounds: if
    /// the larger cap gives a larger value, the separation is unbounded.
    fn compute(&self, a: NodeId, b: NodeId) -> Separation {
        let paths = self.paths_to(a);
        let at_cap = |cap| match &paths {
            Some(paths) => self.max_over_paths(paths, b, cap),
            // Conservative over-approximation: latest arrival of `a` minus the
            // earliest guaranteed arrival of `b`.
            None => {
                let upper: Vec<i64> = self
                    .ces
                    .nodes()
                    .map(|v| self.upper_capped(v, cap))
                    .collect();
                self.arrival(&upper, a) - self.arrival(&self.lower, b)
            }
        };
        let v1 = at_cap(self.base_cap);
        let v2 = at_cap(self.base_cap.saturating_mul(2).saturating_add(7));
        if v2 > v1 {
            Separation::Unbounded
        } else {
            Separation::Finite(Time::new(v1))
        }
    }

    fn upper_capped(&self, node: NodeId, cap: i64) -> i64 {
        match self.ces.delay(node).upper() {
            Bound::Finite(u) => u.as_i64(),
            Bound::Infinite => cap,
        }
    }

    /// Longest (max-plus) arrival time of `target` under the node weights
    /// `weights`: one pass over the topological order, stopping at `target`.
    fn arrival(&self, weights: &[i64], target: NodeId) -> i64 {
        let mut dist = vec![i64::MIN; self.ces.node_count()];
        for &node in &self.order {
            let preds = self.ces.predecessors(node);
            let enab = if preds.is_empty() {
                0
            } else {
                preds
                    .iter()
                    .map(|p| dist[p.index()])
                    .max()
                    .unwrap_or(0)
                    .max(0)
            };
            dist[node.index()] = enab.saturating_add(weights[node.index()]);
            if node == target {
                break;
            }
        }
        dist[target.index()]
    }

    /// Every source-to-`a` path (over causal predecessors), each listed from
    /// `a` back to its source, or `None` once more than the path limit are
    /// pending or found.
    fn paths_to(&self, a: NodeId) -> Option<Vec<Vec<NodeId>>> {
        let mut paths: Vec<Vec<NodeId>> = Vec::new();
        let mut stack: Vec<Vec<NodeId>> = vec![vec![a]];
        while let Some(path) = stack.pop() {
            let head = *path.last().expect("paths are non-empty");
            let preds = self.ces.predecessors(head);
            if preds.is_empty() {
                paths.push(path);
            } else {
                for &p in preds {
                    let mut next = path.clone();
                    next.push(p);
                    stack.push(next);
                }
            }
            if paths.len() + stack.len() > self.options.path_limit {
                return None;
            }
        }
        Some(paths)
    }

    /// Exact maximum separation over the given source-to-`a` paths, with
    /// infinite bounds replaced by `cap`.
    fn max_over_paths(&self, paths: &[Vec<NodeId>], b: NodeId, cap: i64) -> i64 {
        let mut weights = self.lower.clone();
        let mut best = i64::MIN;
        for path in paths {
            // Weight vector: upper bound on the path, lower bound elsewhere.
            for &v in path {
                weights[v.index()] = self.upper_capped(v, cap);
            }
            let t_a: i64 = path.iter().map(|&v| self.upper_capped(v, cap)).sum();
            let t_b = self.arrival(&weights, b);
            best = best.max(t_a - t_b);
            for &v in path {
                weights[v.index()] = self.lower[v.index()];
            }
        }
        best
    }
}

/// Brute-force oracle: enumerates every vertex of the delay box (each delay at
/// its lower or upper bound) and returns the maximum observed separation.
///
/// Only intended for tests on small structures (the cost is `O(2^n)`); the
/// maximum separation is always attained at such a vertex, so on structures
/// without infinite bounds this is exact.
///
/// # Panics
///
/// Panics if the structure has more than 20 nodes or an infinite upper bound.
pub fn brute_force_max_separation(ces: &Ces, a: NodeId, b: NodeId) -> Time {
    let n = ces.node_count();
    assert!(n <= 20, "brute-force oracle limited to 20 nodes");
    let lowers: Vec<i64> = ces.nodes().map(|v| ces.delay(v).lower().as_i64()).collect();
    let uppers: Vec<i64> = ces
        .nodes()
        .map(|v| match ces.delay(v).upper() {
            Bound::Finite(u) => u.as_i64(),
            Bound::Infinite => panic!("brute-force oracle requires finite upper bounds"),
        })
        .collect();
    let order = ces.topological_order().expect("acyclic");
    let mut best = i64::MIN;
    for mask in 0u32..(1 << n) {
        let mut t = vec![0i64; n];
        for &node in &order {
            let i = node.index();
            let d = if mask & (1 << i) != 0 {
                uppers[i]
            } else {
                lowers[i]
            };
            let enab = ces
                .predecessors(node)
                .iter()
                .map(|p| t[p.index()])
                .fold(0i64, i64::max);
            t[i] = enab + d;
        }
        best = best.max(t[a.index()] - t[b.index()]);
    }
    Time::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{CesBuilder, Occurrence};
    use tts::{DelayInterval, EventId};

    fn d(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    fn ev(i: usize) -> EventId {
        EventId::from_index(i)
    }

    #[test]
    fn independent_events_bounds() {
        // a in [1,2], b in [4,6]: max(t(a)-t(b)) = 2-4 = -2, max(t(b)-t(a)) = 6-1 = 5.
        let mut b = CesBuilder::new();
        let a = b.add_node(Occurrence::first(ev(0)), "a", d(1, 2));
        let bb = b.add_node(Occurrence::first(ev(1)), "b", d(4, 6));
        let ces = b.build().unwrap();
        let an = SeparationAnalysis::new(&ces);
        assert_eq!(an.max_separation(a, bb), Separation::Finite(Time::new(-2)));
        assert_eq!(an.max_separation(bb, a), Separation::Finite(Time::new(5)));
        assert!(an.always_precedes(a, bb));
        assert!(!an.always_precedes(bb, a));
    }

    #[test]
    fn shared_prefix_is_not_double_counted() {
        // source v [0,10]; a and b both children with delay [0,0]:
        // t(a) == t(b) for every delay choice, so both separations are 0.
        let mut b = CesBuilder::new();
        let v = b.add_node(Occurrence::first(ev(0)), "v", d(0, 10));
        let a = b.add_node(Occurrence::first(ev(1)), "a", d(0, 0));
        let c = b.add_node(Occurrence::first(ev(2)), "c", d(0, 0));
        b.add_causal_arc(v, a);
        b.add_causal_arc(v, c);
        let ces = b.build().unwrap();
        let an = SeparationAnalysis::new(&ces);
        assert_eq!(an.max_separation(a, c), Separation::Finite(Time::ZERO));
        assert_eq!(an.max_separation(c, a), Separation::Finite(Time::ZERO));
        // The naive "longest minus shortest" bound would report 10 here.
    }

    #[test]
    fn chains_accumulate() {
        // a[1,2] -> c[2,3]; independent g[1,1].
        // max(t(g) - t(c)) = 1 - (1+2) = -2 -> g always before c.
        let mut b = CesBuilder::new();
        let a = b.add_node(Occurrence::first(ev(0)), "a", d(1, 2));
        let c = b.add_node(Occurrence::first(ev(1)), "c", d(2, 3));
        let g = b.add_node(Occurrence::first(ev(2)), "g", d(1, 1));
        b.add_causal_arc(a, c);
        let ces = b.build().unwrap();
        let an = SeparationAnalysis::new(&ces);
        assert_eq!(an.max_separation(g, c), Separation::Finite(Time::new(-2)));
        assert!(an.always_precedes(g, c));
    }

    #[test]
    fn unbounded_delays_are_detected() {
        let mut b = CesBuilder::new();
        let a = b.add_node(
            Occurrence::first(ev(0)),
            "a",
            DelayInterval::at_least(Time::new(1)).unwrap(),
        );
        let g = b.add_node(Occurrence::first(ev(1)), "g", d(1, 1));
        let ces = b.build().unwrap();
        let an = SeparationAnalysis::new(&ces);
        assert_eq!(an.max_separation(a, g), Separation::Unbounded);
        // But the other direction is bounded: g never fires later than a's
        // earliest possible firing time 1, so max(t(g)-t(a)) = 1 - 1 = 0.
        assert_eq!(an.max_separation(g, a), Separation::Finite(Time::ZERO));
        assert!(!an.max_separation(a, g).is_negative());
    }

    #[test]
    fn matches_brute_force_on_diamond() {
        let mut b = CesBuilder::new();
        let s = b.add_node(Occurrence::first(ev(0)), "s", d(1, 3));
        let x = b.add_node(Occurrence::first(ev(1)), "x", d(2, 5));
        let y = b.add_node(Occurrence::first(ev(2)), "y", d(1, 8));
        let t = b.add_node(Occurrence::first(ev(3)), "t", d(0, 2));
        b.add_causal_arc(s, x);
        b.add_causal_arc(s, y);
        b.add_causal_arc(x, t);
        b.add_causal_arc(y, t);
        let ces = b.build().unwrap();
        let an = SeparationAnalysis::new(&ces);
        for (p, q) in [(x, y), (y, x), (s, t), (t, s), (x, t), (t, x)] {
            let exact = brute_force_max_separation(&ces, p, q);
            assert_eq!(an.max_separation(p, q), Separation::Finite(exact));
        }
    }

    #[test]
    fn separation_display() {
        assert_eq!(Separation::Finite(Time::new(-3)).to_string(), "-3");
        assert_eq!(Separation::Unbounded.to_string(), "inf");
        assert_eq!(
            Separation::Finite(Time::new(4)).finite(),
            Some(Time::new(4))
        );
        assert_eq!(Separation::Unbounded.finite(), None);
    }
}
