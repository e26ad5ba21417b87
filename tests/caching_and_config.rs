//! Integration tests: plan execution through the result cache, and
//! derivation-engine configuration behaviour.

use scrubjay::prelude::*;
use sjcore::engine::EngineConfig;
use sjcore::SjError;
use sjdata::{dat1, Dat1Config};

fn small_cfg() -> Dat1Config {
    Dat1Config {
        racks: 4,
        nodes_per_rack: 4,
        amg_rack_index: 2,
        amg_nodes: 3,
        background_jobs: 3,
        duration_secs: 1800,
        ..Dat1Config::default()
    }
}

fn rack_heat_query() -> Query {
    Query::new(
        ["job", "rack"],
        vec![QueryValue::dim("application"), QueryValue::dim("heat")],
    )
}

#[test]
fn result_cache_agrees_with_uncached_execution() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &small_cfg()).unwrap();
    let plan = QueryEngine::new(&catalog)
        .solve(&rack_heat_query())
        .unwrap();

    let sort = |ds: &SjDataset| {
        let mut rows = ds.collect().unwrap();
        rows.sort_by_key(|r| format!("{:?}", r.values()));
        rows
    };
    let plain = sort(&plan.execute(&catalog, None).unwrap());
    let cache = ResultCache::new(64 << 20);
    let cold = sort(&plan.execute(&catalog, Some(&cache)).unwrap());
    let warm = sort(&plan.execute(&catalog, Some(&cache)).unwrap());
    assert_eq!(plain, cold);
    assert_eq!(plain, warm);
    assert!(
        cache.stats().hits >= 1,
        "the repeat execution hits the cache"
    );
}

#[test]
fn interp_window_config_propagates_into_plans() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &small_cfg()).unwrap();
    let engine = QueryEngine::with_config(
        &catalog,
        EngineConfig {
            interp_window_secs: 300.0,
            explode_step_secs: 30.0,
            ..EngineConfig::default()
        },
    );
    let plan = engine.solve(&rack_heat_query()).unwrap();
    let json = plan.to_json();
    assert!(json.contains("\"window_secs\": 300.0"), "{json}");
    assert!(json.contains("\"step_secs\": 30.0"), "{json}");
}

#[test]
fn disallowing_unanchored_joins_blocks_time_only_relations() {
    // A catalog with two datasets whose only shared domain is time.
    let ctx = ExecCtx::local();
    let mut catalog = Catalog::default_hpc();
    let a = Schema::new(vec![
        FieldDef::new("t", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap();
    let b = Schema::new(vec![
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("job", FieldSemantics::domain("job", "job-id")),
        FieldDef::new("app", FieldSemantics::value("application", "app-name")),
    ])
    .unwrap();
    let mk = |schema: Schema, name: &str| {
        SjDataset::from_rows(
            &ctx,
            vec![Row::new(vec![
                Value::Time(Timestamp::from_secs(0)),
                Value::str("x"),
                Value::str("y"),
            ])],
            schema,
            name,
            1,
        )
    };
    catalog.register_dataset("temps", mk(a, "temps")).unwrap();
    catalog.register_dataset("jobs", mk(b, "jobs")).unwrap();

    let query = Query::new(
        ["job", "rack"],
        vec![
            QueryValue::dim("application"),
            QueryValue::dim("temperature"),
        ],
    );

    // Default config: the time-only interpolation join is a valid (if
    // weak) fallback relation.
    let permissive = QueryEngine::new(&catalog);
    let plan = permissive.solve(&query).unwrap();
    assert_eq!(plan.num_combines(), 1);

    // Strict config: no anchored path exists, so there is no solution.
    let strict = QueryEngine::with_config(
        &catalog,
        EngineConfig {
            allow_unanchored: false,
            ..EngineConfig::default()
        },
    );
    assert!(matches!(
        strict.solve(&query).unwrap_err(),
        SjError::NoSolution(_)
    ));
}

#[test]
fn synonym_columns_join_through_the_dictionary() {
    // One dataset calls the column NODEID (an alias), the other node-id;
    // the engine must match them through the canonical dimension.
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &small_cfg()).unwrap();
    // node_layout uses NODEID units alias internally already; make sure
    // the alias resolves in a user query too.
    let q = Query::new(["node", "rack"], vec![]);
    let plan = QueryEngine::new(&catalog).solve(&q).unwrap();
    assert!(plan.loads().contains(&"node_layout"));
    let ds = plan.execute(&catalog, None).unwrap();
    assert!(ds.count().unwrap() > 0);
}
