//! Planner parity: `QueryEngine::solve` must be plan-for-plan
//! identical to `QueryEngine::solve_reference`, the §5.2 search over
//! the whole catalog.
//!
//! The reference search is the semantics — every plan it finds is
//! correct by the existing test corpus — so the production planner,
//! which runs the same search on the slice of the catalog the query can
//! reach, ships under one obligation: *byte-identical results and equal
//! plan fingerprints on every query the reference answers, and the same
//! structured error on every query it cannot*. Fingerprints key the
//! result caches in sjserve and the routing tables in sjroute, so
//! "mostly the same plan" would silently split caches and misroute
//! scatter-gather covers.
//!
//! The hand-built fixtures double as the golden robustness corpus:
//! synonym and homonym near-misses (datasets that *look* relevant but
//! must not be planned in) and heavy row skew (plans are schema-only,
//! so data distribution must never change a plan). A seeded sweep over
//! random catalogs drawn from the DAT datasets covers the rest.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scrubjay::prelude::*;
use sjcore::SjError;
use sjdf::ExecCtx as Ctx;

/// Solve with `solve` and `solve_reference`, each on its own engine so
/// no pair memo is shared, and require identical outcomes: equal plan
/// fingerprint and JSON tree on success, or the same error rendering on
/// failure. Returns the (reference, solve) plan pair or the shared error.
fn parity_outcome(
    catalog: &Catalog,
    config: &EngineConfig,
    query: &Query,
) -> Result<(Plan, Plan), SjError> {
    let reference = QueryEngine::with_config(catalog, config.clone()).solve_reference(query);
    let solved = QueryEngine::with_config(catalog, config.clone()).solve(query);
    match (reference, solved) {
        (Ok(r), Ok(s)) => {
            assert_eq!(
                r.fingerprint(),
                s.fingerprint(),
                "plan fingerprints diverged for {}:\nreference: {}\nsolve: {}",
                query.describe(),
                r.describe(),
                s.describe()
            );
            assert_eq!(r.to_json(), s.to_json(), "plan trees diverged");
            Ok((r, s))
        }
        (Err(re), Err(se)) => {
            assert_eq!(
                re.to_string(),
                se.to_string(),
                "error renderings diverged for {}",
                query.describe()
            );
            Err(se)
        }
        (r, s) => panic!(
            "planners disagree on solvability of {}:\nreference: {:?}\nsolve: {:?}",
            query.describe(),
            r.map(|p| p.describe()),
            s.map(|p| p.describe())
        ),
    }
}

/// [`parity_outcome`] under the default config, plus byte-identical
/// executed rows on success. Returns the shared plan when one exists.
fn assert_parity(catalog: &Catalog, query: &Query) -> Option<Plan> {
    let (reference, plan) = parity_outcome(catalog, &EngineConfig::default(), query).ok()?;
    let rows = |p: &Plan| -> Vec<String> {
        p.execute(catalog, None)
            .unwrap()
            .collect()
            .unwrap()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect()
    };
    assert_eq!(
        rows(&reference),
        rows(&plan),
        "executed rows diverged for {}",
        query.describe()
    );
    Some(plan)
}

fn node_temp_dataset(ctx: &Ctx, field: &str, units: &str, rows: usize, base: f64) -> SjDataset {
    let schema = Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new(field, FieldSemantics::value("temperature", units)),
    ])
    .unwrap();
    let rows: Vec<Row> = (0..rows)
        .map(|k| {
            Row::new(vec![
                Value::str(format!("cab{}", k % 4)),
                Value::Time(Timestamp::from_secs(60 * k as i64)),
                Value::Float(base + k as f64),
            ])
        })
        .collect();
    SjDataset::from_rows(ctx, rows, schema, "temps", 1)
}

/// DAT-1-shaped corpus: job log (compound node list + timespan), rack
/// layout, rack temperatures.
fn dat1_catalog(ctx: &Ctx) -> Catalog {
    let mut catalog = Catalog::default_hpc();
    let joblog_schema = Schema::new(vec![
        FieldDef::new("job", FieldSemantics::domain("job", "job-id")),
        FieldDef::new("job_name", FieldSemantics::value("application", "app-name")),
        FieldDef::new(
            "nodelist",
            FieldSemantics::domain("compute-node", "node-list"),
        ),
        FieldDef::new("elapsed", FieldSemantics::value("time", "t-seconds")),
        FieldDef::new("timespan", FieldSemantics::domain("time", "timespan")),
    ])
    .unwrap();
    let joblog_rows = vec![
        Row::new(vec![
            Value::str("1001"),
            Value::str("AMG"),
            Value::list([Value::str("cab0"), Value::str("cab1")]),
            Value::Float(240.0),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(0),
                Timestamp::from_secs(240),
            )),
        ]),
        Row::new(vec![
            Value::str("1002"),
            Value::str("LULESH"),
            Value::list([Value::str("cab2")]),
            Value::Float(240.0),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(120),
                Timestamp::from_secs(360),
            )),
        ]),
    ];
    catalog
        .register_dataset(
            "job_queue_log",
            SjDataset::from_rows(ctx, joblog_rows, joblog_schema, "job_queue_log", 1),
        )
        .unwrap();

    let layout_schema = Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
    ])
    .unwrap();
    let layout_rows: Vec<Row> = (0..4)
        .map(|k| {
            Row::new(vec![
                Value::str(format!("cab{k}")),
                Value::str(format!("rack{}", 17 + k / 2)),
            ])
        })
        .collect();
    catalog
        .register_dataset(
            "node_layout",
            SjDataset::from_rows(ctx, layout_rows, layout_schema, "node_layout", 1),
        )
        .unwrap();

    let temps_schema = Schema::new(vec![
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        FieldDef::new(
            "location",
            FieldSemantics::domain("rack-location", "location-name"),
        ),
        FieldDef::new("aisle", FieldSemantics::domain("aisle", "aisle-name")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap();
    let mut temps_rows = Vec::new();
    for t in [0i64, 120, 240, 360] {
        for rack in ["rack17", "rack18"] {
            for (aisle, base) in [("hot", 35.0), ("cold", 18.0)] {
                temps_rows.push(Row::new(vec![
                    Value::str(rack),
                    Value::str("top"),
                    Value::str(aisle),
                    Value::Time(Timestamp::from_secs(t)),
                    Value::Float(base + t as f64 / 100.0),
                ]));
            }
        }
    }
    catalog
        .register_dataset(
            "rack_temps",
            SjDataset::from_rows(ctx, temps_rows, temps_schema, "rack_temps", 1),
        )
        .unwrap();
    catalog
}

/// The whole DAT-1-style query corpus agrees across planners: direct
/// hits, multi-join covers, rule-derived values, and both flavors of
/// unsatisfiable query (with byte-identical error messages).
#[test]
fn dat1_corpus_plans_and_rows_agree() {
    let ctx = ExecCtx::local();
    let catalog = dat1_catalog(&ctx);
    let queries = [
        Query::new(["rack"], vec![QueryValue::dim("temperature")]),
        Query::new(["node"], vec![QueryValue::dim("temperature")]),
        Query::new(
            ["job", "rack"],
            vec![QueryValue::dim("application"), QueryValue::dim("heat")],
        ),
        Query::new(["job", "time"], vec![QueryValue::dim("heat")]),
        Query::new(
            ["rack", "time"],
            vec![QueryValue::with_units("temperature", "fahrenheit")],
        ),
        // Domain nobody records: both planners refuse pre-search, with
        // the same message.
        Query::new(["socket"], vec![QueryValue::dim("temperature")]),
        // Value nobody records or derives.
        Query::new(["rack"], vec![QueryValue::dim("humidity")]),
    ];
    let solved: Vec<usize> = queries
        .iter()
        .enumerate()
        .filter_map(|(i, query)| assert_parity(&catalog, query).map(|_| i))
        .collect();
    assert_eq!(
        solved,
        vec![0, 1, 2, 3, 4],
        "corpus should split 5 solvable / 2 not"
    );
}

/// Long dependency chains: every link must be planned in, in the same
/// order, by both planners.
/// Identifier chain node -> rack -> cpu -> socket with a power sensor
/// on the far end; relating `node` to `power` needs every link.
fn chain_catalog(ctx: &Ctx) -> Catalog {
    chain_catalog_over(
        ctx,
        &[
            ("compute-node", "node-id"),
            ("rack", "rack-id"),
            ("cpu", "cpu-id"),
            ("socket", "socket-id"),
        ],
    )
}

/// An identifier chain over `dims` (`link{i}` joins dims `i` and
/// `i + 1`) with a power sensor on the last dimension, which must be
/// `socket`.
fn chain_catalog_over(ctx: &Ctx, dims: &[(&str, &str)]) -> Catalog {
    let mut catalog = Catalog::default_hpc();
    for i in 0..dims.len() - 1 {
        let (d1, u1) = dims[i];
        let (d2, u2) = dims[i + 1];
        let schema = Schema::new(vec![
            FieldDef::new("a", FieldSemantics::domain(d1, u1)),
            FieldDef::new("b", FieldSemantics::domain(d2, u2)),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..4)
            .map(|k| {
                Row::new(vec![
                    Value::str(format!("{d1}-{k}")),
                    Value::str(format!("{d2}-{k}")),
                ])
            })
            .collect();
        catalog
            .register_dataset(
                &format!("link{i}"),
                SjDataset::from_rows(ctx, rows, schema, format!("link{i}"), 1),
            )
            .unwrap();
    }
    let sensor_schema = Schema::new(vec![
        FieldDef::new("x", FieldSemantics::domain("socket", "socket-id")),
        FieldDef::new("watts", FieldSemantics::value("power", "watts")),
    ])
    .unwrap();
    let sensor_rows: Vec<Row> = (0..4)
        .map(|k| {
            Row::new(vec![
                Value::str(format!("socket-{k}")),
                Value::Float(100.0 + k as f64),
            ])
        })
        .collect();
    catalog
        .register_dataset(
            "power_meter",
            SjDataset::from_rows(ctx, sensor_rows, sensor_schema, "power_meter", 1),
        )
        .unwrap();
    catalog
}

/// Long dependency chains: every link must be planned in, in the same
/// order, by both planners.
#[test]
fn chain_covers_agree_across_planners() {
    let ctx = ExecCtx::local();
    let catalog = chain_catalog(&ctx);
    for domain in ["node", "rack", "cpu", "socket"] {
        let query = Query::new(
            match domain {
                "node" => ["node"],
                "rack" => ["rack"],
                "cpu" => ["cpu"],
                _ => ["socket"],
            },
            vec![QueryValue::dim("power")],
        );
        assert_parity(&catalog, &query);
    }
    // The far end needs the whole chain.
    let plan = assert_parity(
        &catalog,
        &Query::new(["node"], vec![QueryValue::dim("power")]),
    )
    .unwrap();
    assert_eq!(plan.loads().len(), 4);
}

/// Ring 2 of the widening: in the chain node -> rack -> aisle -> cpu ->
/// socket, the seed is the node–rack link plus the power sensor, so the
/// aisle–cpu link shares no dimension with it and is reached only after
/// ring 1 runs out. With two identical copies of that link, the plan
/// must take the lower-index copy, as the reference addition order does.
#[test]
fn ring2_bridges_widen_in_index_order() {
    let ctx = ExecCtx::local();
    let mut catalog = chain_catalog_over(
        &ctx,
        &[
            ("compute-node", "node-id"),
            ("rack", "rack-id"),
            ("aisle", "aisle-name"),
            ("cpu", "cpu-id"),
            ("socket", "socket-id"),
        ],
    );
    let copy = catalog.dataset("link2").unwrap().clone();
    catalog.register_dataset("link2_copy", copy).unwrap();
    let plan = assert_parity(
        &catalog,
        &Query::new(["node"], vec![QueryValue::dim("power")]),
    )
    .unwrap();
    let mut loads = plan.loads();
    loads.sort();
    assert_eq!(loads, ["link0", "link1", "link2", "link3", "power_meter"]);
}

/// Golden near-miss: `degrees-celsius` is a dictionary synonym for
/// `celsius`, and a second dataset records temperature in `fahrenheit`.
/// A units-constrained query through the synonym must plan in only the
/// celsius dataset — on both planners — while the unconstrained query
/// deterministically picks the same supplier on both.
#[test]
fn synonym_near_miss_picks_the_matching_units() {
    let ctx = ExecCtx::local();
    let mut catalog = Catalog::default_hpc();
    catalog
        .register_dataset(
            "temps_celsius",
            node_temp_dataset(&ctx, "temp_c", "celsius", 8, 20.0),
        )
        .unwrap();
    catalog
        .register_dataset(
            "temps_fahrenheit",
            node_temp_dataset(&ctx, "temp_f", "fahrenheit", 8, 68.0),
        )
        .unwrap();

    // `node` and `degrees-celsius` are both aliases; canonicalization
    // must land both planners on the same celsius supplier.
    let via_synonym = Query::new(
        ["node"],
        vec![QueryValue::with_units("temperature", "degrees-celsius")],
    );
    let plan = assert_parity(&catalog, &via_synonym).unwrap();
    assert_eq!(plan.loads(), vec!["temps_celsius"]);

    // Without units the query is a genuine tie between two suppliers —
    // exactly where a planner rewrite would silently flip the choice.
    let unconstrained = Query::new(["node"], vec![QueryValue::dim("temperature")]);
    let plan = assert_parity(&catalog, &unconstrained).unwrap();
    assert_eq!(plan.loads().len(), 1);
}

/// Golden near-miss: two datasets share the column *name* `temp` but on
/// different dimensions (`temperature` vs `thermal-margin`). Planning
/// is semantic, not lexical — the homonym must never be planned in.
#[test]
fn homonym_near_miss_is_never_planned_in() {
    let ctx = ExecCtx::local();
    let mut catalog = Catalog::default_hpc();
    catalog
        .register_dataset(
            "node_temps",
            node_temp_dataset(&ctx, "temp", "celsius", 8, 20.0),
        )
        .unwrap();
    let margin_schema = Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new(
            "temp",
            FieldSemantics::value("thermal-margin", "margin-celsius"),
        ),
    ])
    .unwrap();
    let margin_rows: Vec<Row> = (0..8)
        .map(|k| {
            Row::new(vec![
                Value::str(format!("cab{}", k % 4)),
                Value::Time(Timestamp::from_secs(60 * k as i64)),
                Value::Float(10.0 - k as f64 / 2.0),
            ])
        })
        .collect();
    catalog
        .register_dataset(
            "node_margins",
            SjDataset::from_rows(&ctx, margin_rows, margin_schema, "node_margins", 1),
        )
        .unwrap();

    let temp_plan = assert_parity(
        &catalog,
        &Query::new(["node"], vec![QueryValue::dim("temperature")]),
    )
    .unwrap();
    assert_eq!(temp_plan.loads(), vec!["node_temps"]);
    let margin_plan = assert_parity(
        &catalog,
        &Query::new(["node"], vec![QueryValue::dim("thermal-margin")]),
    )
    .unwrap();
    assert_eq!(margin_plan.loads(), vec!["node_margins"]);
}

/// Golden skew: one rack holds 80% of the temperature rows. Plans are
/// schema-only, so data statistics such as this skew must never change
/// a plan: the skewed catalog plans exactly like an evenly spread one
/// with the same schemas, on both planners.
#[test]
fn row_skew_and_statistics_never_change_the_plan() {
    let ctx = ExecCtx::local();
    let base = dat1_catalog(&ctx);
    let temps_schema = Schema::new(vec![
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap();
    // Swap the fixture's rack temperatures for 100 rows, either spread
    // evenly over five racks or with 80 of them on rack17.
    let with_temps = |skewed: bool| {
        let rows: Vec<Row> = (0..100i64)
            .map(|k| {
                let rack = if skewed && k < 80 { 17 } else { 17 + k % 5 };
                Row::new(vec![
                    Value::str(format!("rack{rack}")),
                    Value::Time(Timestamp::from_secs(30 * k)),
                    Value::Float(20.0 + (k % 7) as f64),
                ])
            })
            .collect();
        let mut catalog = Catalog::default_hpc();
        for (name, ds) in base.datasets() {
            if name != "rack_temps" {
                catalog.register_dataset(name, ds.clone()).unwrap();
            }
        }
        catalog
            .register_dataset(
                "rack_temps",
                SjDataset::from_rows(&ctx, rows, temps_schema.clone(), "rack_temps", 1),
            )
            .unwrap();
        catalog
    };

    let query = Query::new(["job", "rack"], vec![QueryValue::dim("temperature")]);
    let even = assert_parity(&with_temps(false), &query).unwrap();
    let skewed = assert_parity(&with_temps(true), &query).unwrap();
    assert_eq!(even.fingerprint(), skewed.fingerprint());
    assert_eq!(even.to_json(), skewed.to_json());
}

/// Budget truncation renders identically through both planners. The
/// chain needs four datasets; a budget of two stops the widening with
/// links still untried, so both planners must answer with the
/// structured truncation error (not a claim of unsatisfiability).
#[test]
fn truncation_errors_agree_across_planners() {
    let ctx = ExecCtx::local();
    let catalog = chain_catalog(&ctx);
    let query = Query::new(["node"], vec![QueryValue::dim("power")]);
    let config = EngineConfig {
        max_datasets: 2,
        ..EngineConfig::default()
    };
    let err = parity_outcome(&catalog, &config, &query).unwrap_err();
    assert!(matches!(
        err,
        SjError::SearchTruncated {
            max_datasets: 2,
            ..
        }
    ));
}

/// The datasets the random sweep draws from: every dataset of a small
/// DAT1 and DAT2 — job logs, layout, rack sensors, PAPI counters (with
/// `aperf`/`mperf`, so the rate and active-frequency rules fire), IPMI,
/// CPU specs and LDMS.
fn dat_pool(ctx: &Ctx) -> Vec<SjDataset> {
    let (dat1, _) = sjdata::dat1(
        ctx,
        &sjdata::Dat1Config {
            racks: 3,
            nodes_per_rack: 2,
            amg_rack_index: 1,
            amg_nodes: 2,
            background_jobs: 1,
            duration_secs: 900,
            partitions: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let (dat2, _) = sjdata::dat2(
        ctx,
        &sjdata::Dat2Config {
            cpus_per_node: 2,
            run_secs: 60,
            gap_secs: 10,
            sample_interval_secs: 10.0,
            partitions: 1,
            ..Default::default()
        },
    )
    .unwrap();
    dat1.datasets()
        .chain(dat2.datasets())
        .map(|(_, ds)| ds.clone())
        .collect()
}

/// Seeded random-catalog sweep: 400 catalogs, each a draw with
/// replacement of one to six pool datasets registered under shuffled
/// names (so catalog order, ties between identical schemas and rule
/// hosts all vary), and six random queries per catalog over the drawn
/// datasets' domain and value dimensions plus rule-derived values,
/// under a dataset budget of 2, 3 or 32. Every query must get the same
/// plan JSON or the same error text.
#[test]
fn random_catalogs_plan_identically() {
    let ctx = ExecCtx::local();
    let pool = dat_pool(&ctx);
    let derived = [
        QueryValue::dim("heat"),
        QueryValue::dim("frequency"),
        QueryValue::with_units("instructions", "instructions-per-ms"),
        QueryValue::with_units("memory-reads", "memory-reads-per-ms"),
        QueryValue::with_units("temperature", "fahrenheit"),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x5C8B_2017);
    let (mut solved, mut unsolvable, mut truncated) = (0usize, 0usize, 0usize);
    for _ in 0..400 {
        let mut slots: Vec<usize> = (0..rng.gen_range(1..=6)).collect();
        slots.shuffle(&mut rng);
        let mut catalog = Catalog::default_hpc();
        let mut domains: Vec<String> = Vec::new();
        let mut values: Vec<QueryValue> = derived.to_vec();
        for slot in slots {
            let ds = pool.choose(&mut rng).unwrap();
            for f in ds.schema().domain_fields() {
                domains.push(f.semantics.dimension.clone());
            }
            for f in ds.schema().value_fields() {
                values.push(QueryValue::dim(&f.semantics.dimension));
            }
            catalog
                .register_dataset(&format!("ds{slot}"), ds.clone())
                .unwrap();
        }
        for _ in 0..6 {
            let mut query_domains: Vec<String> = (0..rng.gen_range(1..=2))
                .map(|_| domains.choose(&mut rng).unwrap().clone())
                .collect();
            query_domains.sort();
            query_domains.dedup();
            let mut query_values: Vec<QueryValue> = (0..rng.gen_range(1..=2))
                .map(|_| values.choose(&mut rng).unwrap().clone())
                .collect();
            query_values.dedup();
            let query = Query {
                domains: query_domains,
                values: query_values,
            };
            let config = EngineConfig {
                max_datasets: *[2, 3, 32].choose(&mut rng).unwrap(),
                ..EngineConfig::default()
            };
            match parity_outcome(&catalog, &config, &query) {
                Ok(_) => solved += 1,
                Err(SjError::SearchTruncated { .. }) => truncated += 1,
                Err(_) => unsolvable += 1,
            }
        }
    }
    // The sweep must reach every outcome, or it proves little.
    assert!(
        solved > 0 && unsolvable > 0 && truncated > 0,
        "degenerate sweep: {solved} solved, {unsolvable} unsolvable, {truncated} truncated"
    );
}
