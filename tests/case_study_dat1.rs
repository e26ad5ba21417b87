//! End-to-end integration test of the first case study (§7.2):
//! application impact on rack heat generation, Figures 4 and 5.
//!
//! Raw generated tables go in; the derivation engine must find the
//! Figure 5 plan, and executing it must expose the paper's finding — the
//! AMG job's rack is the heat outlier, with a steadily rising profile.

use scrubjay::prelude::*;
use sjcore::derivations::DerivationSpec;
use sjdata::{dat1, Dat1Config};
use std::collections::HashMap;

fn small_cfg() -> Dat1Config {
    Dat1Config {
        racks: 6,
        nodes_per_rack: 6,
        amg_rack_index: 4,
        amg_nodes: 5,
        background_jobs: 5,
        duration_secs: 3600,
        sensor_interval_secs: 120.0,
        seed: 0x5C8B,
        partitions: 3,
    }
}

fn rack_heat_query() -> Query {
    Query::new(
        ["job", "rack"],
        vec![QueryValue::dim("application"), QueryValue::dim("heat")],
    )
}

#[test]
fn engine_finds_the_figure5_sequence() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &small_cfg()).unwrap();
    let engine = QueryEngine::new(&catalog);
    let plan = engine.solve(&rack_heat_query()).unwrap();

    // The paper's tree: the layout joins the job side, and heat is the
    // left input of the interpolation join, which emits one row per
    // matched left element. The join is anchored on the queried `rack`.
    let cfg = EngineConfig::default();
    let jobs_on_racks = Plan::load("job_queue_log")
        .then(DerivationSpec::ExplodeDiscrete {
            column: "nodelist".into(),
        })
        .combine(DerivationSpec::NaturalJoin, Plan::load("node_layout"))
        .then(DerivationSpec::ExplodeContinuous {
            column: "timespan".into(),
            step_secs: cfg.explode_step_secs,
        });
    let expected = Plan::load("rack_temps")
        .then(DerivationSpec::DeriveHeat)
        .combine(
            DerivationSpec::InterpolationJoin {
                window_secs: cfg.interp_window_secs,
            },
            jobs_on_racks,
        );
    assert_eq!(plan, expected, "found:\n{}", plan.describe());
}

/// The tree the planner built before its fold tie-break, rebuilt from
/// the solved plan's own specs: the layout joins the heat side, and the
/// twice-exploded job log is interpolation-joined on `compute-node`,
/// `(derive_heat(rack_temps) ⋈ node_layout) ⋈ᵢ
/// explode_continuous(explode_discrete(job_queue_log))`. It survives only
/// as this test's answer oracle.
fn layout_on_heat_side(plan: &Plan) -> Plan {
    let Plan::Combine {
        spec: interp,
        left: heat,
        right,
    } = plan
    else {
        panic!("not a combination at the top:\n{}", plan.describe());
    };
    let Plan::Transform {
        spec: explode_continuous,
        input,
    } = right.as_ref()
    else {
        panic!("no explode_continuous on the right:\n{}", plan.describe());
    };
    let Plan::Combine {
        spec: natural,
        left: jobs,
        right: layout,
    } = input.as_ref()
    else {
        panic!("no natural join below it:\n{}", plan.describe());
    };
    heat.as_ref()
        .clone()
        .combine(natural.clone(), layout.as_ref().clone())
        .combine(
            interp.clone(),
            jobs.as_ref().clone().then(explode_continuous.clone()),
        )
}

/// A plan's answer as a sorted multiset of rows whose cells are put in
/// one column order, keyed by relation, dimension and units, so two
/// trees that name or order their columns differently (`NODEID` vs
/// `nodelist_exploded`) compare cell for cell. Returns the column keys
/// in that order, and the rows.
fn answer_by_dimension(plan: &Plan, catalog: &Catalog) -> (Vec<String>, Vec<String>) {
    let result = plan.execute(catalog, None).unwrap();
    let fields = result.schema().fields().to_vec();
    let key = |i: usize| {
        let s = &fields[i].semantics;
        format!("{:?}/{}/{}", s.relation, s.dimension, s.units)
    };
    let mut order: Vec<usize> = (0..fields.len()).collect();
    order.sort_by_key(|&i| key(i));
    let keys: Vec<String> = order.iter().map(|&i| key(i)).collect();
    let mut rows: Vec<String> = result
        .collect()
        .unwrap()
        .iter()
        .map(|r| {
            let cells: Vec<&Value> = order.iter().map(|&i| r.get(i)).collect();
            format!("{cells:?}")
        })
        .collect();
    rows.sort();
    (keys, rows)
}

#[test]
fn figure5_answer_equals_the_layout_on_heat_side_tree() {
    for cfg in [small_cfg(), Dat1Config::default()] {
        let ctx = ExecCtx::local();
        let (catalog, _) = dat1(&ctx, &cfg).unwrap();
        let plan = QueryEngine::new(&catalog)
            .solve(&rack_heat_query())
            .unwrap();
        let (keys, rows) = answer_by_dimension(&plan, &catalog);
        let (oracle_keys, oracle_rows) = answer_by_dimension(&layout_on_heat_side(&plan), &catalog);
        let mut unique = keys.clone();
        unique.dedup();
        assert_eq!(unique, keys, "column keys must match one column each");
        assert_eq!(keys, oracle_keys);
        assert!(!rows.is_empty());
        assert_eq!(rows.len(), oracle_rows.len(), "row counts differ");
        assert!(rows == oracle_rows, "answers differ as multisets");
    }
}

#[test]
fn amg_rack_is_the_heat_outlier_with_rising_profile() {
    let ctx = ExecCtx::local();
    let (catalog, truth) = dat1(&ctx, &small_cfg()).unwrap();
    let engine = QueryEngine::new(&catalog);
    let plan = engine.solve(&rack_heat_query()).unwrap();
    let result = plan.execute(&catalog, None).unwrap();
    let schema = result.schema().clone();
    let rows = result.collect().unwrap();
    assert!(!rows.is_empty());

    let app_i = schema.index_of("job_name").unwrap();
    let rack_i = schema.index_of("rack").unwrap();
    let heat_i = schema.index_of("heat").unwrap();
    let time_col = schema.domain_field_on("time").unwrap().name.clone();
    let time_i = schema.index_of(&time_col).unwrap();

    // Mean heat per (app, rack): the AMG pair must rank first.
    let mut agg: HashMap<(String, String), (f64, usize)> = HashMap::new();
    for r in &rows {
        if let (Some(app), Some(rack), Some(h)) = (
            r.get(app_i).as_str(),
            r.get(rack_i).as_str(),
            r.get(heat_i).as_f64(),
        ) {
            let e = agg.entry((app.into(), rack.into())).or_insert((0.0, 0));
            e.0 += h;
            e.1 += 1;
        }
    }
    let mut ranked: Vec<((String, String), f64)> = agg
        .into_iter()
        .map(|(k, (s, n))| (k, s / n as f64))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ((top_app, top_rack), top_heat) = &ranked[0];
    assert_eq!(top_app, "AMG");
    assert_eq!(top_rack, &truth.amg_rack);
    assert!(*top_heat > 5.0, "AMG mean heat too low: {top_heat}");

    // AMG's signature: heat rises over the run (Figure 4).
    let mut amg_series: Vec<(i64, f64)> = rows
        .iter()
        .filter(|r| r.get(app_i).as_str() == Some("AMG"))
        .filter_map(|r| Some((r.get(time_i).as_time()?.as_secs(), r.get(heat_i).as_f64()?)))
        .collect();
    amg_series.sort_by_key(|(t, _)| *t);
    assert!(amg_series.len() > 10);
    let half = amg_series.len() / 2;
    let mean = |s: &[(i64, f64)]| s.iter().map(|(_, h)| h).sum::<f64>() / s.len() as f64;
    let early = mean(&amg_series[..half]);
    let late = mean(&amg_series[half..]);
    assert!(
        late > early + 1.0,
        "AMG heat should rise: early={early:.2} late={late:.2}"
    );
}

#[test]
fn derived_rows_respect_the_node_rack_containment() {
    // Every derived (node, rack) pair must agree with the ground-truth
    // layout — the engine may not relate a job to a rack it did not run
    // on (this is why the anchored layout join matters).
    let ctx = ExecCtx::local();
    let (catalog, truth) = dat1(&ctx, &small_cfg()).unwrap();
    let plan = QueryEngine::new(&catalog)
        .solve(&rack_heat_query())
        .unwrap();
    let result = plan.execute(&catalog, None).unwrap();
    let schema = result.schema().clone();
    let rack_i = schema.index_of("rack").unwrap();
    let node_col = schema.domain_field_on("compute-node").unwrap().name.clone();
    let node_i = schema.index_of(&node_col).unwrap();
    for r in result.collect().unwrap() {
        let node = r.get(node_i).as_str().unwrap();
        let rack = r.get(rack_i).as_str().unwrap();
        assert_eq!(
            truth.facility.layout().rack_of(node),
            Some(rack),
            "derived row places {node} on {rack}"
        );
    }
}

#[test]
fn the_figure5_plan_round_trips_through_json() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &small_cfg()).unwrap();
    let plan = QueryEngine::new(&catalog)
        .solve(&rack_heat_query())
        .unwrap();
    let json = plan.to_json();
    let back = Plan::from_json(&json).unwrap();
    assert_eq!(plan, back);
    // The reloaded plan executes to the same number of rows.
    let a = plan.execute(&catalog, None).unwrap().count().unwrap();
    let b = back.execute(&catalog, None).unwrap().count().unwrap();
    assert_eq!(a, b);
}
