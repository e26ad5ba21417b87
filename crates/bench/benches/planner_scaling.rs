//! Planner scaling benchmark: `QueryEngine::solve` against the
//! reference whole-catalog search (`solve_reference`) on rare-dimension
//! catalogs.
//!
//! The sweep builds [`planner_catalog`]s of growing size — each zone
//! dimension lives in ~2 datasets, each metric in ~4, mirroring real
//! sites where any one query touches a sliver of the catalog — and
//! times a fixed batch of distinct queries per engine. The reference
//! search saturates and orders every registered dataset per solve, so
//! its batch time grows linearly with catalog size; `solve` reads its
//! supplier sets off the (engine-cached) catalog index and only ever
//! touches datasets reachable from the query, so its batch time should
//! be nearly flat.
//!
//! The run asserts:
//!
//! * a parity probe — both searches produce identical plan
//!   fingerprints for every query at every size;
//! * `solve`'s growth from the smallest to the largest catalog is
//!   sub-linear: strictly under half the reference growth;
//! * `solve` beats the reference outright at the largest size.
//!
//! Results land in `BENCH_planner.json` (committed; CI re-runs the
//! bench and fails on a >10% regression of the headline speedup). Its
//! keys keep their historical names: `legacy_*` is the reference
//! search and `constraint_*` is `solve`.
//! Custom harness (`harness = false`); does nothing unless `--bench`
//! is on the command line.

use scrubjay_bench::{bench_ctx, planner_catalog};
use sjcore::catalog::Catalog;
use sjcore::engine::{Plan, Query, QueryEngine, QueryValue};
use sjcore::Result;
use std::time::Instant;

const SIZES: [usize; 3] = [50, 250, 1000];
const QUERIES: usize = 200;
const EVALS: usize = 9;

/// The query batch for a catalog of `n` datasets: `QUERIES` distinct
/// single-zone queries spread evenly across the catalog, each solvable
/// by the dataset recording that zone's metric.
fn batch(n: usize) -> Vec<Query> {
    let (zones, metrics) = ((n / 2).max(1), (n / 4).max(1));
    (0..QUERIES)
        .map(|j| {
            let i = j * n / QUERIES;
            Query {
                domains: vec![format!("zone-{}", i % zones)],
                values: vec![QueryValue::dim(&format!("metric-{}", i % metrics))],
            }
        })
        .collect()
}

/// One of the two searches under comparison.
type Search = fn(&QueryEngine<'_>, &Query) -> Result<Plan>;

/// Wall time to solve the whole batch on one engine, in seconds. A
/// fresh engine per pass means `solve`'s catalog index is rebuilt once
/// per batch and amortized across its queries — the deployment shape
/// (sjserve holds one engine config per catalog epoch, solving many
/// queries).
fn batch_secs(catalog: &Catalog, search: Search, queries: &[Query]) -> f64 {
    let start = Instant::now();
    let engine = QueryEngine::new(catalog);
    for q in queries {
        search(&engine, q).expect("bench query must solve");
    }
    start.elapsed().as_secs_f64()
}

/// Best-of-`EVALS` batch time. The batches are small (hundreds of
/// microseconds to tens of milliseconds), where the minimum is the
/// standard noise-robust estimator: every source of error — scheduler
/// preemption, cache eviction, frequency dips — only ever adds time.
fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let ctx = bench_ctx();

    let reference: Search = |engine, q| engine.solve_reference(q);
    let solve: Search = |engine, q| engine.solve(q);
    let mut ref_best = Vec::new();
    let mut solve_best = Vec::new();
    for &n in &SIZES {
        let catalog = planner_catalog(&ctx, n);
        let queries = batch(n);

        // Parity probe before timing anything: identical fingerprints
        // on every query at this size.
        let fp = |search: Search, q: &Query| {
            search(&QueryEngine::new(&catalog), q)
                .expect("parity probe query must solve")
                .fingerprint()
        };
        for q in &queries {
            assert_eq!(
                fp(reference, q),
                fp(solve, q),
                "searches diverged at n={n} on {}",
                q.describe()
            );
        }

        let ref_secs = best(
            (0..EVALS)
                .map(|_| batch_secs(&catalog, reference, &queries))
                .collect(),
        );
        let solve_secs = best(
            (0..EVALS)
                .map(|_| batch_secs(&catalog, solve, &queries))
                .collect(),
        );
        println!(
            "planner_scaling: n={n}: reference {ref_secs:.4}s, solve {solve_secs:.4}s \
             ({:.2}x) for {QUERIES} queries",
            ref_secs / solve_secs.max(1e-9)
        );
        ref_best.push(ref_secs);
        solve_best.push(solve_secs);
    }

    let ref_growth = ref_best[SIZES.len() - 1] / ref_best[0].max(1e-9);
    let solve_growth = solve_best[SIZES.len() - 1] / solve_best[0].max(1e-9);
    let speedup = ref_best[SIZES.len() - 1] / solve_best[SIZES.len() - 1].max(1e-9);
    assert!(
        solve_growth < ref_growth / 2.0,
        "solve must scale sub-linearly vs the reference search \
         (solve grew {solve_growth:.1}x, reference {ref_growth:.1}x \
         over a {}x catalog sweep)",
        SIZES[SIZES.len() - 1] / SIZES[0]
    );
    assert!(
        speedup > 1.0,
        "solve must beat the reference search at n={} ({speedup:.2}x)",
        SIZES[SIZES.len() - 1]
    );

    let fmt_series = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"bench\": \"planner_scaling\",\n  \"catalog_sizes\": [{}],\n  \
         \"queries_per_size\": {QUERIES},\n  \"evals\": {EVALS},\n  \
         \"legacy_batch_best_secs\": [{}],\n  \
         \"constraint_batch_best_secs\": [{}],\n  \
         \"legacy_growth\": {ref_growth:.2},\n  \
         \"constraint_growth\": {solve_growth:.2},\n  \
         \"speedup\": {speedup:.2},\n  \"parity_probe\": \"pass\"\n}}\n",
        SIZES
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        fmt_series(&ref_best),
        fmt_series(&solve_best),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planner.json");
    std::fs::write(out, &json).expect("write BENCH_planner.json");
    println!(
        "planner_scaling: {speedup:.2}x at n={}, growth {solve_growth:.1}x vs \
         reference {ref_growth:.1}x -> BENCH_planner.json",
        SIZES[SIZES.len() - 1]
    );
}
