//! The exploration driver: a sequential FIFO breadth-first search.

use crate::cancel::StopReason;
use crate::progress::ProgressEvent;
use crate::seen::SeenMap;
use crate::space::SearchSpace;
use crate::spec::ExploreSpec;

/// Frontier entries between two checks of the cancel token.
const CANCEL_STRIDE: usize = 32;

/// Expansions between two [`ProgressEvent::Batch`] events.
const PROGRESS_STRIDE: usize = 32;

/// Why a search stopped before its frontier drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// [`SearchSpace::should_halt`] stopped the search at the last node.
    Halted,
    /// More configurations than [`ExploreSpec::limit`] were expanded.
    LimitExceeded,
    /// The [`ExploreSpec::cancel`] token stopped the search at a check
    /// (cancelled, past its deadline, or a budget breach this search
    /// recorded on it; the token's [`reason`](crate::CancelToken::reason)
    /// tells which).
    Cancelled,
}

/// What an exploration found, however it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport<C, E> {
    /// Expanded configurations, as stored (interned), in deterministic
    /// breadth-first order. When the search [halted](Stop::Halted), the
    /// halting configuration is the last one.
    pub nodes: Vec<C>,
    /// Configurations counted as expanded: the nodes, plus the one over the
    /// limit or a budget when that stopped the search.
    pub expanded: usize,
    /// Number of configurations ever stored in the seen set (monotone count;
    /// under subsumption, later arrivals may prune earlier ones).
    pub discovered: usize,
    /// Enqueued configurations skipped without expansion because a subsuming
    /// configuration arrived after they were enqueued.
    pub subsumption_skips: usize,
    /// Why the search stopped before its frontier drained; `None` if it
    /// drained. The successors of a halting configuration were not stored
    /// and do not count as discovered.
    pub stopped: Option<Stop>,
    /// Parent links, aligned with [`nodes`](Self::nodes): entry `i` names the
    /// node that first discovered `nodes[i]` and the edge it was discovered
    /// through (`None` for initial configurations). Empty unless the space
    /// [records parents](SearchSpace::records_parents).
    pub parents: Vec<Option<(usize, E)>>,
}

impl<C, E: Clone> ExploreReport<C, E> {
    /// Reconstructs the breadth-first discovery path from an initial
    /// configuration to `nodes[node]` using the recorded parent links:
    /// returns the root node index and the `(edge, node index)` steps fired
    /// along the path. The path is a genuine path of the search space — every
    /// recorded parent actually produced its child through
    /// [`SearchSpace::expand`].
    ///
    /// Returns `None` if parent tracking was off or `node` is out of range.
    pub fn path_to(&self, node: usize) -> Option<(usize, Vec<(E, usize)>)> {
        if self.parents.len() != self.nodes.len() {
            return None;
        }
        let mut steps = Vec::new();
        let mut current = node;
        loop {
            match self.parents.get(current)? {
                None => break,
                Some((parent, edge)) => {
                    steps.push((edge.clone(), current));
                    current = *parent;
                }
            }
        }
        steps.reverse();
        Some((current, steps))
    }
}

/// Explores `space` breadth-first and returns the expanded configurations in
/// deterministic order.
///
/// `spec.limit` (`None`: no limit) and `spec.budget` are checked after
/// every expansion, a breach being recorded on `spec.cancel`, which is
/// checked once per 32 frontier entries. `spec.progress` gets a `Batch`
/// event every 32 expansions and at each level end, a `Level` event after
/// every level and a `Cancelled` event when the token stops the search.
/// However the search ends, the report describes what it explored, with
/// [`ExploreReport::stopped`] saying why it ended early.
///
/// The search keeps, per dedup key, the stored configurations maximal under
/// [`SearchSpace::subsumes`]; a successor subsumed by a stored configuration
/// is dropped, and an enqueued configuration that has been pruned by a later,
/// subsuming arrival is skipped when its turn comes (the pop-time subsumption
/// check — with exact deduplication neither ever triggers spuriously).
///
/// # Errors
///
/// Returns the first [`SearchSpace::Error`] in breadth-first order.
pub fn explore<S: SearchSpace>(
    space: &S,
    spec: &ExploreSpec,
) -> Result<ExploreReport<S::Config, S::Edge>, S::Error> {
    let mut seen: SeenMap<S> = SeenMap::default();
    // With exact deduplication (the default `subsumes`) a stored
    // configuration is never pruned, so the pop-time staleness check can
    // never fire and is skipped entirely.
    let stale_possible = space.uses_subsumption();

    let limit = spec.limit.unwrap_or(usize::MAX);
    let tracing = space.records_parents();

    let mut nodes: Vec<S::Config> = Vec::new();
    let mut parents: Vec<Option<(usize, S::Edge)>> = Vec::new();
    let mut expanded = 0usize;
    let mut discovered = 0usize;
    let mut subsumption_skips = 0usize;
    let mut stopped = None;

    let mut frontier: Vec<S::Config> = Vec::new();
    // Aligned with `frontier` when tracing: the expanded node that
    // discovered each enqueued configuration, and through which edge.
    let mut frontier_parents: Vec<Option<(usize, S::Edge)>> = Vec::new();
    for config in space.initial()? {
        if let Some(stored) = seen.push(space, config) {
            discovered += 1;
            frontier.push(stored);
            if tracing {
                frontier_parents.push(None);
            }
        }
    }

    let mut last_progress = 0usize;
    let mut level = 0usize;
    'search: while !frontier.is_empty() {
        let mut next: Vec<S::Config> = Vec::new();
        let mut next_parents: Vec<Option<(usize, S::Edge)>> = Vec::new();
        for (i, config) in frontier.iter().enumerate() {
            // Cooperative cancellation, checked once per stride of frontier
            // entries so a stopped search ends within one stride. The
            // counters describe the explored prefix.
            if i % CANCEL_STRIDE == 0 && spec.cancel.is_cancelled() {
                spec.progress.emit(&ProgressEvent::Cancelled { expanded });
                stopped = Some(Stop::Cancelled);
                break 'search;
            }
            if stale_possible && !seen.contains(space, config) {
                seen.note_skip(space, config);
                subsumption_skips += 1;
                continue;
            }
            expanded += 1;
            if expanded > limit {
                stopped = Some(Stop::LimitExceeded);
                break 'search;
            }
            // Resource budgets, checked at the same point as the limit. A
            // breach stops the run's token with the breach as its reason,
            // which is how the caller tells a budget abort apart.
            if let Some(breach) = spec.budget.check(expanded) {
                spec.cancel.stop(StopReason::Budget(breach));
                spec.progress.emit(&ProgressEvent::Cancelled { expanded });
                stopped = Some(Stop::Cancelled);
                break 'search;
            }
            let successors = space.expand(config)?;
            let node_index = nodes.len();
            nodes.push(config.clone());
            if tracing {
                parents.push(frontier_parents[i].clone());
            }
            if space.should_halt(config, &successors) {
                stopped = Some(Stop::Halted);
                break 'search;
            }
            for (edge, successor) in successors {
                if let Some(stored) = seen.push(space, successor) {
                    discovered += 1;
                    next.push(stored);
                    if tracing {
                        next_parents.push(Some((node_index, edge)));
                    }
                }
            }
            if expanded.is_multiple_of(PROGRESS_STRIDE) {
                last_progress = expanded;
                spec.progress.emit(&ProgressEvent::Batch {
                    expanded,
                    discovered,
                    subsumption_skips,
                });
            }
        }
        if expanded > last_progress {
            last_progress = expanded;
            spec.progress.emit(&ProgressEvent::Batch {
                expanded,
                discovered,
                subsumption_skips,
            });
        }
        spec.progress.emit(&ProgressEvent::Level {
            index: level,
            frontier: next.len(),
        });
        level += 1;
        frontier = next;
        frontier_parents = next_parents;
    }

    Ok(ExploreReport {
        nodes,
        expanded,
        discovered,
        subsumption_skips,
        stopped,
        parents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use std::cell::Cell;
    use std::convert::Infallible;

    /// Bounded grid walk: configs are `(x, y)`, moves increment one
    /// coordinate. Exact dedup, edge labels name the axis.
    struct Grid {
        side: u64,
    }

    impl SearchSpace for Grid {
        type Config = (u64, u64);
        type Key = (u64, u64);
        type Edge = char;
        type Error = Infallible;

        fn initial(&self) -> Result<Vec<(u64, u64)>, Infallible> {
            Ok(vec![(0, 0)])
        }

        fn key(&self, config: &(u64, u64)) -> (u64, u64) {
            *config
        }

        fn expand(&self, &(x, y): &(u64, u64)) -> Result<Vec<(char, (u64, u64))>, Infallible> {
            let mut next = Vec::new();
            if x + 1 < self.side {
                next.push(('x', (x + 1, y)));
            }
            if y + 1 < self.side {
                next.push(('y', (x, y + 1)));
            }
            Ok(next)
        }
    }

    /// Interval space with genuine subsumption: configs are `(lo, hi)`
    /// intervals at a single key; wider intervals subsume narrower ones.
    struct Widening;

    impl SearchSpace for Widening {
        type Config = (u64, u64);
        type Key = ();
        type Edge = ();
        type Error = Infallible;

        fn initial(&self) -> Result<Vec<(u64, u64)>, Infallible> {
            Ok(vec![(4, 4)])
        }

        fn key(&self, _: &(u64, u64)) {}

        fn expand(&self, &(lo, hi): &(u64, u64)) -> Result<Vec<((), (u64, u64))>, Infallible> {
            if hi - lo >= 8 {
                return Ok(Vec::new());
            }
            // Two successors: a narrow shifted interval and a widening one.
            // The widening successor subsumes the narrow one, which must
            // then be skipped at pop time.
            Ok(vec![((), (lo, hi + 1)), ((), (lo - 1, hi + 1))])
        }

        fn subsumes(&self, stored: &(u64, u64), candidate: &(u64, u64)) -> bool {
            stored.0 <= candidate.0 && stored.1 >= candidate.1
        }

        fn uses_subsumption(&self) -> bool {
            true
        }
    }

    /// Wraps a space and turns parent tracking on.
    struct Traced<S>(S);

    impl<S: SearchSpace> SearchSpace for Traced<S> {
        type Config = S::Config;
        type Key = S::Key;
        type Edge = S::Edge;
        type Error = S::Error;

        fn initial(&self) -> Result<Vec<S::Config>, S::Error> {
            self.0.initial()
        }

        fn key(&self, config: &S::Config) -> S::Key {
            self.0.key(config)
        }

        fn expand(&self, config: &S::Config) -> Result<Vec<(S::Edge, S::Config)>, S::Error> {
            self.0.expand(config)
        }

        fn subsumes(&self, stored: &S::Config, candidate: &S::Config) -> bool {
            self.0.subsumes(stored, candidate)
        }

        fn uses_subsumption(&self) -> bool {
            self.0.uses_subsumption()
        }

        fn records_parents(&self) -> bool {
            true
        }

        fn should_halt(&self, config: &S::Config, successors: &[(S::Edge, S::Config)]) -> bool {
            self.0.should_halt(config, successors)
        }
    }

    /// The report of a search that drained its frontier or halted.
    fn completed<S: SearchSpace>(space: &S, spec: &ExploreSpec) -> ExploreReport<S::Config, S::Edge>
    where
        S::Error: std::fmt::Debug,
    {
        let report = explore(space, spec).expect("no error");
        assert!(
            matches!(report.stopped, None | Some(Stop::Halted)),
            "expected completion, got {:?}",
            report.stopped
        );
        report
    }

    #[test]
    fn sequential_bfs_visits_each_config_once_in_level_order() {
        let report = completed(&Grid { side: 4 }, &ExploreSpec::default());
        assert_eq!(report.nodes.len(), 16);
        assert_eq!(report.discovered, 16);
        assert_eq!(report.subsumption_skips, 0);
        assert_eq!(report.stopped, None);
        // Breadth-first: Manhattan distance never decreases.
        let distances: Vec<u64> = report.nodes.iter().map(|&(x, y)| x + y).collect();
        assert!(distances.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn subsumption_prunes_enqueued_configs() {
        let report = completed(&Widening, &ExploreSpec::default());
        // The widening successor always subsumes the narrow one, so narrow
        // intervals enqueued earlier get pruned and skipped.
        assert!(report.subsumption_skips > 0, "no pop-time skips");
        assert!(report.nodes.len() < report.discovered);
        // Parent links survive the pruning: one per expanded node.
        let traced = completed(&Traced(Widening), &ExploreSpec::default());
        assert_eq!(traced.parents.len(), traced.nodes.len());
        assert!(!traced.parents.is_empty());
        assert_eq!(traced.nodes, report.nodes);
    }

    #[test]
    fn expanded_limit_aborts_deterministically() {
        let report = explore(
            &Grid { side: 10 },
            &ExploreSpec {
                limit: Some(7),
                ..ExploreSpec::default()
            },
        )
        .expect("no error");
        assert_eq!(report.stopped, Some(Stop::LimitExceeded));
        // The config over the limit is counted, not expanded.
        assert_eq!(report.expanded, 8);
        assert_eq!(report.nodes.len(), 7);
        assert!(report.discovered >= report.expanded);
        assert_eq!(report.subsumption_skips, 0);
    }

    #[test]
    fn config_budget_aborts_deterministically_and_fires_cancel() {
        use crate::budget::{BudgetMeter, BudgetResource};
        let budget = BudgetMeter::new(Some(7), None);
        let cancel = CancelToken::new();
        let report = explore(
            &Grid { side: 10 },
            &ExploreSpec {
                budget: budget.clone(),
                cancel: cancel.clone(),
                ..ExploreSpec::default()
            },
        )
        .expect("no error");
        assert_eq!(report.stopped, Some(Stop::Cancelled));
        assert_eq!(report.expanded, 8, "aborts on the breaching config");
        let Some(StopReason::Budget(breach)) = cancel.reason() else {
            panic!("breach recorded on the token: {:?}", cancel.reason());
        };
        assert_eq!(breach.resource, BudgetResource::Configs);
        assert_eq!(breach.used, 8);
        assert_eq!(breach.limit, 7);
        assert!(cancel.is_cancelled(), "breach must fire the cancel token");
    }

    #[test]
    fn zone_byte_budget_aborts_once_charged_over() {
        use crate::budget::{BudgetMeter, BudgetResource};
        let budget = BudgetMeter::new(None, Some(10));
        budget.charge_zone_bytes(11);
        let cancel = CancelToken::new();
        let report = explore(
            &Grid { side: 4 },
            &ExploreSpec {
                budget: budget.clone(),
                cancel: cancel.clone(),
                ..ExploreSpec::default()
            },
        )
        .expect("no error");
        assert_eq!(report.stopped, Some(Stop::Cancelled));
        assert_eq!(report.expanded, 1);
        assert_eq!(
            match cancel.reason() {
                Some(StopReason::Budget(breach)) => Some(breach.resource),
                _ => None,
            },
            Some(BudgetResource::ZoneBytes)
        );
    }

    #[test]
    fn inert_budget_changes_nothing() {
        use crate::budget::BudgetMeter;
        let plain = completed(&Grid { side: 5 }, &ExploreSpec::default());
        let with_meter = completed(
            &Grid { side: 5 },
            &ExploreSpec {
                budget: BudgetMeter::default(),
                ..ExploreSpec::default()
            },
        );
        assert_eq!(plain, with_meter);
    }

    /// A grid whose expansion fires a cancel token after a fixed number of
    /// expand calls — models an outside cancellation arriving mid-search.
    struct CancellingGrid {
        grid: Grid,
        token: CancelToken,
        after: usize,
        calls: Cell<usize>,
    }

    impl SearchSpace for CancellingGrid {
        type Config = (u64, u64);
        type Key = (u64, u64);
        type Edge = char;
        type Error = Infallible;

        fn initial(&self) -> Result<Vec<(u64, u64)>, Infallible> {
            self.grid.initial()
        }

        fn key(&self, config: &(u64, u64)) -> (u64, u64) {
            *config
        }

        fn expand(&self, config: &(u64, u64)) -> Result<Vec<(char, (u64, u64))>, Infallible> {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() == self.after {
                self.token.cancel();
            }
            self.grid.expand(config)
        }
    }

    #[test]
    fn cancellation_halts_early_and_reports_cancelled() {
        let token = CancelToken::new();
        let space = CancellingGrid {
            grid: Grid { side: 32 },
            token: token.clone(),
            after: 10,
            calls: Cell::new(0),
        };
        let report = explore(
            &space,
            &ExploreSpec {
                cancel: token,
                ..ExploreSpec::default()
            },
        )
        .expect("no error");
        assert_eq!(report.stopped, Some(Stop::Cancelled));
        // Far fewer than the 1024 grid configurations were expanded: the
        // search stopped at its next check, and reports what it explored.
        let expanded = report.expanded;
        assert!(expanded >= 10, "expanded={expanded}");
        assert!(expanded < 1024, "expanded={expanded}");
        assert_eq!(report.nodes.len(), expanded);
        assert!(report.discovered >= expanded);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_expansion() {
        let token = CancelToken::new();
        token.cancel();
        let report = explore(
            &Grid { side: 4 },
            &ExploreSpec {
                cancel: token,
                ..ExploreSpec::default()
            },
        )
        .expect("no error");
        assert_eq!(report.stopped, Some(Stop::Cancelled));
        assert_eq!(report.expanded, 0);
        assert!(report.nodes.is_empty());
    }

    #[test]
    fn inert_token_changes_nothing() {
        let plain = completed(&Grid { side: 5 }, &ExploreSpec::default());
        let with_token = completed(
            &Grid { side: 5 },
            &ExploreSpec {
                cancel: CancelToken::default(),
                ..ExploreSpec::default()
            },
        );
        assert_eq!(plain, with_token);
    }

    #[test]
    fn progress_events_are_identical_across_runs() {
        use crate::progress::{ProgressEvent, ProgressSink};
        use std::sync::{Arc, Mutex};

        let run = || {
            let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
            let sink_events = Arc::clone(&events);
            let options = ExploreSpec {
                progress: ProgressSink::new(move |event| {
                    sink_events.lock().unwrap().push(*event);
                }),
                ..ExploreSpec::default()
            };
            completed(&Grid { side: 6 }, &options);
            let collected = events.lock().unwrap().clone();
            collected
        };
        let events = run();
        assert!(!events.is_empty());
        // Final batch counters match the completed report, and levels count
        // the grid's 2*side - 1 breadth-first diagonals.
        let batches: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::Batch { .. }))
            .collect();
        assert!(
            matches!(
                batches.last(),
                Some(ProgressEvent::Batch {
                    expanded: 36,
                    discovered: 36,
                    ..
                })
            ),
            "{batches:?}"
        );
        let levels = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::Level { .. }))
            .count();
        assert_eq!(levels, 11);
        assert_eq!(events, run(), "two runs stream different events");
    }

    #[test]
    fn cancellation_emits_a_cancelled_event() {
        use crate::progress::{ProgressEvent, ProgressSink};
        use std::sync::{Arc, Mutex};

        let token = CancelToken::new();
        token.cancel();
        let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
        let sink_events = Arc::clone(&events);
        let report = explore(
            &Grid { side: 4 },
            &ExploreSpec {
                cancel: token,
                progress: ProgressSink::new(move |event| {
                    sink_events.lock().unwrap().push(*event);
                }),
                ..ExploreSpec::default()
            },
        )
        .expect("no error");
        assert_eq!(report.stopped, Some(Stop::Cancelled));
        assert_eq!(
            events.lock().unwrap().as_slice(),
            &[ProgressEvent::Cancelled { expanded: 0 }]
        );
    }

    /// A space that halts on a goal configuration.
    struct GoalGrid {
        side: u64,
        goal: (u64, u64),
    }

    impl SearchSpace for GoalGrid {
        type Config = (u64, u64);
        type Key = (u64, u64);
        type Edge = char;
        type Error = Infallible;

        fn initial(&self) -> Result<Vec<(u64, u64)>, Infallible> {
            Ok(vec![(0, 0)])
        }

        fn key(&self, config: &(u64, u64)) -> (u64, u64) {
            *config
        }

        fn expand(&self, config: &(u64, u64)) -> Result<Vec<(char, (u64, u64))>, Infallible> {
            Grid { side: self.side }.expand(config)
        }

        fn should_halt(&self, config: &(u64, u64), _: &[(char, (u64, u64))]) -> bool {
            *config == self.goal
        }
    }

    #[test]
    fn halting_stops_at_the_first_goal_in_bfs_order() {
        let report = completed(
            &GoalGrid {
                side: 6,
                goal: (2, 1),
            },
            &ExploreSpec::default(),
        );
        assert_eq!(report.stopped, Some(Stop::Halted));
        assert_eq!(report.nodes.last(), Some(&(2, 1)));
        // Only configs at distance <= 3 can have been expanded.
        assert!(report.nodes.iter().all(|&(x, y)| x + y <= 3));
    }

    #[test]
    fn parent_tracking_reconstructs_breadth_first_paths() {
        let report = completed(&Traced(Grid { side: 4 }), &ExploreSpec::default());
        assert_eq!(report.parents.len(), report.nodes.len());
        // Every node's path replays through the grid moves back to the
        // origin, and its length is the node's Manhattan distance.
        for (i, &(x, y)) in report.nodes.iter().enumerate() {
            let (root, steps) = report.path_to(i).expect("parents recorded");
            assert_eq!(report.nodes[root], (0, 0));
            assert_eq!(steps.len() as u64, x + y);
            let mut at = (0u64, 0u64);
            for (edge, target) in &steps {
                match edge {
                    'x' => at.0 += 1,
                    'y' => at.1 += 1,
                    other => panic!("unexpected edge {other}"),
                }
                assert_eq!(report.nodes[*target], at);
            }
            assert_eq!(at, (x, y));
        }
    }

    #[test]
    fn path_to_without_tracking_returns_none() {
        let report = completed(&Grid { side: 3 }, &ExploreSpec::default());
        assert!(report.parents.is_empty());
        assert!(report.path_to(0).is_none());
    }

    #[test]
    fn halting_node_has_a_path() {
        let report = completed(
            &Traced(GoalGrid {
                side: 6,
                goal: (2, 1),
            }),
            &ExploreSpec::default(),
        );
        assert_eq!(report.stopped, Some(Stop::Halted));
        let last = report.nodes.len() - 1;
        let (root, steps) = report.path_to(last).expect("parents recorded");
        assert_eq!(report.nodes[root], (0, 0));
        assert_eq!(steps.len(), 3);
        assert_eq!(report.nodes[steps.last().unwrap().1], (2, 1));
    }

    /// A space whose expansion fails on one configuration.
    struct Failing;

    impl SearchSpace for Failing {
        type Config = u32;
        type Key = u32;
        type Edge = ();
        type Error = String;

        fn initial(&self) -> Result<Vec<u32>, String> {
            Ok(vec![0])
        }

        fn key(&self, config: &u32) -> u32 {
            *config
        }

        fn expand(&self, config: &u32) -> Result<Vec<((), u32)>, String> {
            if *config == 5 {
                return Err("boom at 5".to_owned());
            }
            Ok(vec![((), config + 1), ((), config + 2)])
        }
    }

    #[test]
    fn errors_surface_at_the_deterministic_position() {
        let err = explore(&Failing, &ExploreSpec::default()).unwrap_err();
        assert_eq!(err, "boom at 5");
    }
}
