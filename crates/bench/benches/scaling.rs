//! Scaling (§3.2): cost of building/exploring flat pipelines of growing
//! length versus the constant-size abstraction obligations, plus the cost
//! profile of the shared exploration core (sequential vs. parallel, and the
//! default zone abstraction vs. the exact oracle).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbm::{explore_timed_with, ExploreSpec, ZoneExplorationOptions};

fn scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/flat_pipeline_untimed_reachability");
    for n in [1usize, 2] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let pipeline = ipcmos::flat_pipeline(n).expect("pipeline builds");
                pipeline.underlying().reachable_states().len()
            })
        });
    }
    group.finish();
    c.bench_function("scaling/abstraction_obligation_fixed_point", |b| {
        b.iter(|| ipcmos::experiment_4().expect("experiment 4 builds"))
    });

    // Zone exploration of a 1-stage pipeline under the exact oracle and the
    // default abstraction, sequential and parallel (bounded so a single
    // iteration stays cheap).
    let pipeline = ipcmos::flat_pipeline(1).expect("pipeline builds");
    let mut group = c.benchmark_group("scaling/zone_exploration");
    for (name, threads, exact) in [
        ("sequential_exact", 1usize, true),
        ("sequential_alu", 1, false),
        ("parallel4_alu", 4, false),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                explore_timed_with(
                    &pipeline,
                    ZoneExplorationOptions {
                        spec: ExploreSpec {
                            threads,
                            exact,
                            limit: Some(3_000),
                            ..ExploreSpec::default()
                        },
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = scaling
}
criterion_main!(benches);
