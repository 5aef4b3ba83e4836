//! Property-based tests: the max-separation analysis agrees with the
//! brute-force delay-vertex oracle on random acyclic event structures, and
//! its path-truncation fallback never under-approximates it.

use ces::{
    brute_force_max_separation, Ces, CesBuilder, NodeId, Occurrence, Separation,
    SeparationAnalysis, SeparationOptions,
};
use proptest::prelude::*;
use tts::{DelayInterval, EventId, Time};

#[derive(Debug, Clone)]
struct RandomDag {
    delays: Vec<(i64, i64)>,
    edges: Vec<(usize, usize)>,
}

fn random_dag() -> impl Strategy<Value = RandomDag> {
    (2usize..7).prop_flat_map(|n| {
        let delays = proptest::collection::vec((0i64..6, 0i64..6), n);
        let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..(n * 2));
        (delays, edges).prop_map(move |(delays, edges)| RandomDag {
            delays: delays.into_iter().map(|(l, e)| (l, l + e)).collect(),
            edges: edges.into_iter().filter(|(a, b)| a < b).collect(),
        })
    })
}

/// Builds the event structure of `dag`, one node per delay.
fn build(dag: &RandomDag) -> (Ces, Vec<NodeId>) {
    let mut builder = CesBuilder::new();
    let nodes: Vec<_> = dag
        .delays
        .iter()
        .enumerate()
        .map(|(i, &(l, u))| {
            builder.add_node(
                Occurrence::first(EventId::from_index(i)),
                format!("e{i}"),
                DelayInterval::new(Time::new(l), Time::new(u)).expect("valid"),
            )
        })
        .collect();
    for &(a, b) in &dag.edges {
        builder.add_causal_arc(nodes[a], nodes[b]);
    }
    let ces = builder
        .build()
        .expect("random DAGs are acyclic by construction");
    (ces, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn separation_matches_brute_force(dag in random_dag()) {
        let (ces, nodes) = build(&dag);
        let analysis = SeparationAnalysis::new(&ces);
        for &a in &nodes {
            for &b in &nodes {
                if a == b {
                    continue;
                }
                let exact = brute_force_max_separation(&ces, a, b);
                prop_assert_eq!(analysis.max_separation(a, b), Separation::Finite(exact));
            }
        }
    }

    #[test]
    fn truncated_separation_never_falls_below_brute_force(
        dag in random_dag(),
        path_limit in 1usize..4,
    ) {
        let (ces, nodes) = build(&dag);
        let analysis = SeparationAnalysis::with_options(&ces, SeparationOptions { path_limit });
        for &a in &nodes {
            for &b in &nodes {
                if a == b {
                    continue;
                }
                let exact = brute_force_max_separation(&ces, a, b);
                if let Separation::Finite(bound) = analysis.max_separation(a, b) {
                    prop_assert!(bound >= exact, "{:?} < {:?} at path_limit {}", bound, exact, path_limit);
                }
            }
        }
    }
}
