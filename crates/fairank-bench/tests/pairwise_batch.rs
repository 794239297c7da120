//! Regression bench for the engine's batched pairwise aggregation: on the
//! tracked 10k-row / 8-attribute reference space, the default engine must
//! resolve the search's pairwise aggregations with at least 4× fewer
//! EMD evaluations (`emd_calls + emd_cache_hits`) than the naive
//! `Quantify` walk, which computes every leaf pair of every aggregation —
//! with search results unchanged to the last bit. Writes its report to
//! the test's scratch directory (`CARGO_TARGET_TMPDIR`), so a plain
//! `cargo test` leaves the checkout untouched; CI runs the smoke shape via
//! `FAIRANK_BENCH_SMOKE=1` and uploads the JSON as an artifact, like
//! `BENCH_quantify.json`.
//!
//! Output path override: `BENCH_PAIRWISE_OUT=<path>` (relative paths
//! resolve against the workspace root). Regenerate the committed baseline
//! with `BENCH_PAIRWISE_OUT=BENCH_pairwise.json cargo test --release -p
//! fairank-bench --test pairwise_batch`.

use std::path::PathBuf;
use std::time::Instant;

use fairank_bench::synthetic_space;
use fairank_core::fairness::FairnessCriterion;
use fairank_core::quantify::{Quantify, QuantifyOutcome};
use serde::Serialize;

/// One QUANTIFY run's measurement.
#[derive(Debug, Serialize)]
struct BackendRecord {
    /// The engine's EMD backend (`1d`), or `naive` for the per-pair walk.
    backend: String,
    wall_ms: f64,
    emd_calls: u64,
    emd_cache_hits: u64,
    /// `emd_calls + emd_cache_hits`: every pair-level resolution, through
    /// the memo or (naive walk) straight to the EMD.
    pairwise_evaluations: u64,
    pairwise_batches: u64,
    unfairness: f64,
    partitions: u64,
}

/// The emitted report.
#[derive(Debug, Serialize)]
struct BenchReport {
    experiment: String,
    smoke: bool,
    n: u64,
    attrs: u64,
    cardinality: u64,
    /// Naive-walk evaluations divided by engine evaluations (≥ 4 required).
    evaluation_reduction: f64,
    records: Vec<BackendRecord>,
}

fn evaluations(outcome: &QuantifyOutcome) -> u64 {
    (outcome.stats.emd_calls + outcome.stats.emd_cache_hits) as u64
}

fn out_path(smoke: bool) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    match std::env::var_os("BENCH_PAIRWISE_OUT") {
        Some(p) => {
            let p = PathBuf::from(p);
            if p.is_absolute() {
                p
            } else {
                root.join(p)
            }
        }
        None if smoke => {
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("BENCH_pairwise.smoke.json")
        }
        None => PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("BENCH_pairwise.json"),
    }
}

/// The default engine's pair-level resolutions on the 10k-row / 8-attribute
/// reference space are pinned: skipping the memo in the final all-leaves
/// aggregation moves its memo hits into `emd_calls`, but the sum stays
/// exactly what the memoized aggregation resolved.
#[test]
fn engine_pairwise_evaluations_are_pinned_on_the_reference_space() {
    let space = synthetic_space(10_000, 8, 3, 0.3, 7);
    let outcome = Quantify::new(FairnessCriterion::default())
        .run_space(&space)
        .expect("quantify runs");
    assert_eq!(evaluations(&outcome), 94_564, "stats: {:?}", outcome.stats);
    assert_eq!(outcome.partitions.len(), 3_177);
}

#[test]
fn batched_backend_does_4x_fewer_pairwise_evaluations() {
    let smoke = std::env::var_os("FAIRANK_BENCH_SMOKE").is_some();
    // The smoke shape keeps the 8-attribute depth (that is what drives the
    // fine partitioning whose repeated leaf contents the batch dedups) and
    // shrinks the population so CI finishes in well under a second.
    let (n, attrs, card) = if smoke {
        (2_000usize, 8usize, 3u32)
    } else {
        (10_000, 8, 3)
    };
    let space = synthetic_space(n, attrs, card, 0.3, 7);

    let mut records = Vec::new();
    let mut outcomes = Vec::new();
    for (label, quantify) in [
        ("1d", Quantify::new(FairnessCriterion::default())),
        (
            "naive",
            Quantify::new(FairnessCriterion::default()).with_naive_evaluation(),
        ),
    ] {
        let start = Instant::now();
        let outcome = quantify.run_space(&space).expect("quantify runs");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        records.push(BackendRecord {
            backend: label.to_string(),
            wall_ms,
            emd_calls: outcome.stats.emd_calls as u64,
            emd_cache_hits: outcome.stats.emd_cache_hits as u64,
            pairwise_evaluations: evaluations(&outcome),
            pairwise_batches: outcome.stats.pairwise_batches as u64,
            unfairness: outcome.unfairness,
            partitions: outcome.partitions.len() as u64,
        });
        outcomes.push(outcome);
    }
    let (engine, naive) = (&outcomes[0], &outcomes[1]);

    // Unchanged search results, to the last bit.
    assert_eq!(naive.unfairness.to_bits(), engine.unfairness.to_bits());
    assert_eq!(naive.partitions, engine.partitions);
    assert_eq!(naive.tree, engine.tree);

    // The acceptance bar: ≥ 4× fewer EMD evaluations.
    let walk = evaluations(naive);
    let batch = evaluations(engine);
    assert!(
        batch * 4 <= walk,
        "the engine did {batch} pairwise evaluations vs {walk} for the \
         naive walk (need ≥ 4× fewer)"
    );
    assert!(engine.stats.pairwise_batches > 0);
    assert_eq!(naive.stats.pairwise_batches, 0);

    let report = BenchReport {
        experiment: "bench_pairwise".to_string(),
        smoke,
        n: n as u64,
        attrs: attrs as u64,
        cardinality: card as u64,
        evaluation_reduction: walk as f64 / batch.max(1) as f64,
        records,
    };
    let path = out_path(smoke);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).expect("report is writable");
    println!(
        "pairwise evaluations: naive {walk} vs engine {batch} \
         ({:.1}× reduction). Wrote {}.",
        walk as f64 / batch.max(1) as f64,
        path.display()
    );
}
