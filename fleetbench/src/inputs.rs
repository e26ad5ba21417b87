//! The workloads' inputs, all made from seeds: the DAT1 catalog behind
//! the Fig. 5 rack-heat query with its expected answer, and the
//! standing query's disarray schedule with its expected frames.

use crate::workloads::TENANT;
use sjcore::catalog::Catalog;
use sjcore::engine::{EngineConfig, Query, QueryValue};
use sjcore::{Row, Schema, Value};
use sjdata::{dat1, disarray_schedule, stream_catalog, Dat1Config, Disarray};
use sjdf::ExecCtx;
use sjserve::protocol::Request;
use sjserve::{QueryService, QuerySpec, ServiceConfig, ValueSpec};
use sjstream::{AppendBatch, StreamConfig, StreamEngine, WindowEmission};
use std::path::Path;

/// The Fig. 5 query: application per job × heat per rack.
pub fn rackheat_spec(limit: usize) -> QuerySpec {
    QuerySpec {
        limit: Some(limit),
        ..QuerySpec::new(["job", "rack"], ["application", "heat"])
    }
}

/// The standing derive-rate + interpolation-join query.
pub fn standing_spec() -> QuerySpec {
    QuerySpec {
        domains: vec!["compute-node".into(), "time".into()],
        values: vec![
            ValueSpec::with_units("instructions", "instructions-per-ms"),
            ValueSpec::dim("temperature"),
        ],
        window_secs: None,
        step_secs: None,
        limit: None,
    }
}

/// A [`QuerySpec`] as the engine's [`Query`].
pub fn engine_query(spec: &QuerySpec) -> Query {
    Query {
        domains: spec.domains.clone(),
        values: spec
            .values
            .iter()
            .map(|v| match &v.units {
                Some(u) => QueryValue::with_units(&v.dimension, u),
                None => QueryValue::dim(&v.dimension),
            })
            .collect(),
    }
}

/// A full query answer as the service renders it.
pub struct Answer {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

/// DAT1 generated in memory, written as a catalog directory, and
/// answered in process.
pub struct Dat1Inputs {
    pub ctx: ExecCtx,
    pub catalog: Catalog,
    pub answer: Answer,
    pub sensor_rows: usize,
}

/// Generate DAT1 (default shape: 20 racks × 12 nodes over 4 h) from
/// `seed`, write it under `dir`, and compute the rack-heat answer with an
/// in-process [`QueryService`] over the in-memory catalog — the
/// reference every served answer must equal row for row.
pub fn dat1_inputs(seed: u64, dir: &Path) -> Result<Dat1Inputs, String> {
    let ctx = ExecCtx::local();
    let cfg = Dat1Config {
        seed,
        ..Dat1Config::default()
    };
    let (catalog, _truth) = dat1(&ctx, &cfg).map_err(|e| e.to_string())?;
    write_catalog(&catalog, dir)?;
    let service = QueryService::new(
        ctx.clone(),
        catalog.clone(),
        ServiceConfig {
            result_cache_bytes: 0,
            ..ServiceConfig::default()
        },
    );
    let response = service.handle(Request::query(
        "expected",
        TENANT,
        rackheat_spec(usize::MAX),
    ));
    service.shutdown();
    let result = response
        .result
        .ok_or_else(|| format!("in-process rack-heat query failed: {:?}", response.error))?;
    let sensor_rows = catalog
        .dataset("rack_temps")
        .and_then(|ds| ds.count())
        .map_err(|e| e.to_string())?;
    Ok(Dat1Inputs {
        ctx,
        catalog,
        answer: Answer {
            columns: result.columns,
            rows: result.rows,
        },
        sensor_rows,
    })
}

/// Write every dataset as `<name>.csv` plus its `<name>.schema.json`
/// sidecar, the layout `sjserved --data` loads.
fn write_catalog(catalog: &Catalog, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for name in catalog.dataset_names() {
        let ds = catalog.dataset(name).map_err(|e| e.to_string())?;
        let rows = ds.collect().map_err(|e| e.to_string())?;
        write_dataset(dir, name, ds.schema(), &rows)?;
    }
    Ok(())
}

fn write_dataset(dir: &Path, name: &str, schema: &Schema, rows: &[Row]) -> Result<(), String> {
    let mut csv: Vec<String> = vec![schema
        .fields()
        .iter()
        .map(|f| csv_cell(&f.name))
        .collect::<Vec<_>>()
        .join(",")];
    csv.extend(rows.iter().map(|row| {
        row.values()
            .iter()
            .map(|v| csv_cell(&render(v)))
            .collect::<Vec<_>>()
            .join(",")
    }));
    let csv_path = dir.join(format!("{name}.csv"));
    let sidecar = serde_json::to_string_pretty(schema).map_err(|e| e.to_string())?;
    std::fs::write(&csv_path, csv.join("\n") + "\n")
        .and_then(|()| std::fs::write(csv_path.with_extension("schema.json"), sidecar))
        .map_err(|e| format!("{}: {e}", csv_path.display()))
}

/// A cell as the CSV wrapper parses it back: lists as `a|b|c` (without
/// the brackets `Value`'s display adds), spans as `start .. end`.
fn render(v: &Value) -> String {
    match v {
        Value::List(items) => items.iter().map(render).collect::<Vec<_>>().join("|"),
        Value::Span(s) => format!("{} .. {}", s.start, s.end),
        other => other.to_string(),
    }
}

fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The standing query's input: a `late_duplicates` schedule and the
/// frames each append must produce.
pub struct StreamInputs {
    pub schedule: Vec<AppendBatch>,
    /// Per append, the window emissions a single subscriber must see.
    pub expected: Vec<Vec<WindowEmission>>,
}

/// Write the header-only stream catalog under `dir` (the stream is the
/// data) and replay a `steps`-step schedule from `seed` through an
/// in-process [`StreamEngine`] configured like the daemons.
pub fn stream_inputs(seed: u64, steps: usize, dir: &Path) -> Result<StreamInputs, String> {
    let ctx = ExecCtx::local();
    let catalog = stream_catalog(&ctx).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for name in catalog.dataset_names() {
        let ds = catalog.dataset(name).map_err(|e| e.to_string())?;
        write_dataset(dir, name, ds.schema(), &[])?;
    }
    let schedule = disarray_schedule(Disarray::LateDuplicates, seed, steps);
    let mut shadow = new_stream_engine(&ctx, catalog)?;
    let expected = schedule
        .iter()
        .map(|batch| {
            let outcome = shadow.append(batch).map_err(|e| e.to_string())?;
            if outcome.failures.is_empty() {
                Ok(outcome.emissions)
            } else {
                Err(format!("shadow engine tore down: {:?}", outcome.failures))
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(StreamInputs { schedule, expected })
}

/// A [`StreamEngine`] with the daemons' default configuration and the
/// standing query subscribed.
pub fn new_stream_engine(ctx: &ExecCtx, catalog: Catalog) -> Result<StreamEngine, String> {
    let mut engine = StreamEngine::new(
        ctx,
        catalog,
        StreamConfig::default(),
        EngineConfig::default(),
    );
    engine
        .subscribe("q-shadow", TENANT, &engine_query(&standing_spec()))
        .map_err(|e| e.to_string())?;
    Ok(engine)
}
