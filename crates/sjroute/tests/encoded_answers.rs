//! Render once, forward bytes: a worker keeps each answer as one encoded
//! row section and cuts a `limit` prefix from it on a hit, and a router
//! relays a worker's section without decoding it. Over the wire, the
//! answer must still be exactly what the in-process `handle` answers, at
//! every limit boundary, on misses and hits, straight from a worker and
//! through a router's single-shard route; and each cache is charged the
//! encoded bytes it holds.

mod common;

use std::time::Duration;

use common::*;
use sjcore::catalog::Catalog;
use sjcore::row::Row;
use sjcore::value::Value;
use sjcore::SjDataset;
use sjdf::{ByteSize, ExecCtx};
use sjroute::{Router, RouterBackend};
use sjserve::client::Client;
use sjserve::protocol::{QueryResult, QuerySpec, Request, Response};
use sjserve::scheduler::SchedulerConfig;
use sjserve::server::{serve, ServerHandle};
use sjserve::service::{QueryService, ServiceConfig};
use sjserve::wire::RowSection;

/// Power readings, `nrows` of them. With `repeats` the cells come from
/// a few distinct strings and the table dict-encodes; without, nearly
/// every cell is distinct and the table ships plain.
fn power_rows(nrows: usize, repeats: bool) -> Vec<Row> {
    (0..nrows)
        .map(|i| {
            let (node, watts) = if repeats {
                (format!("cab{}", i % 6), (i % 4) as f64)
            } else {
                (format!("cab{i}"), 100.0 + i as f64 * 0.25)
            };
            Row::new(vec![Value::str(node), Value::Float(watts)])
        })
        .collect()
}

fn worker_over(ctx: &ExecCtx, rows: &[Row], result_cache_bytes: usize) -> QueryService {
    let mut catalog = Catalog::default_hpc();
    let ds = SjDataset::from_rows(ctx, rows.to_vec(), power_schema(), "node_power", 2);
    catalog.register_dataset("node_power", ds).unwrap();
    QueryService::new(
        ctx.clone(),
        catalog,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 2,
                max_queue: 16,
                default_timeout: Duration::from_secs(10),
            },
            result_cache_bytes,
            ..ServiceConfig::default()
        },
    )
}

/// One worker over TCP and a router over TCP in front of it.
struct Fleet {
    worker: QueryService,
    worker_handle: ServerHandle,
    router: Router,
    router_handle: ServerHandle<RouterBackend>,
}

impl Fleet {
    fn boot(rows: &[Row], result_cache_bytes: usize) -> Fleet {
        let ctx = ctx();
        let worker = worker_over(&ctx, rows, result_cache_bytes);
        let worker_handle = spawn(worker.clone());
        let router = router_over(&[&worker_handle]);
        let router_handle = serve(router.clone(), "127.0.0.1:0").expect("bind router");
        Fleet {
            worker,
            worker_handle,
            router,
            router_handle,
        }
    }

    fn direct(&self, limit: Option<usize>) -> Response {
        query(&self.worker_handle.addr.to_string(), limit)
    }

    fn routed(&self, limit: Option<usize>) -> Response {
        query(&self.router_handle.addr.to_string(), limit)
    }

    fn stop(self) {
        self.router_handle.stop();
        self.worker_handle.stop();
    }
}

fn spec(limit: Option<usize>) -> QuerySpec {
    QuerySpec {
        limit,
        ..power_spec()
    }
}

fn query(addr: &str, limit: Option<usize>) -> Response {
    let mut client = Client::connect_as(addr, "t").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.query(spec(limit), None).expect("query answers")
}

/// What must match across every path: columns, rows, row count and
/// truncation.
fn answer(response: &Response) -> (Vec<String>, Vec<Vec<String>>, usize, bool) {
    let r: &QueryResult = response.result.as_ref().expect("a result");
    (r.columns.clone(), r.rows.clone(), r.row_count, r.truncated)
}

fn cache_hit(response: &Response) -> bool {
    response.result.as_ref().unwrap().result_cache_hit
}

#[test]
fn wire_answers_equal_in_process_answers_at_every_limit() {
    for (nrows, repeats) in [(300, true), (40, false)] {
        let rows = power_rows(nrows, repeats);
        let reference = worker_over(&ctx(), &rows, 0);
        let limits = [
            Some(0),
            Some(1),
            Some(nrows - 1),
            Some(nrows),
            Some(nrows + 1),
            None,
        ];
        let want = |limit: Option<usize>| {
            let r = reference.handle(Request::query("ref", "t", spec(limit)));
            assert!(r.is_ok(), "{:?}", r.error);
            answer(&r)
        };
        for limit in limits {
            let expected = want(limit);
            let case = format!("{nrows} rows (repeats: {repeats}), limit {limit:?}");

            // A worker miss encodes the whole answer and cuts the limit
            // from it; the router relays that cut.
            let fleet = Fleet::boot(&rows, 64 << 20);
            let routed_miss = fleet.routed(limit);
            assert!(!cache_hit(&routed_miss), "{case}");
            assert_eq!(answer(&routed_miss), expected, "{case}: routed worker miss");
            let direct_hit = fleet.direct(limit);
            assert!(cache_hit(&direct_hit), "{case}");
            assert_eq!(answer(&direct_hit), expected, "{case}: direct hit");
            let route_hit = fleet.routed(limit);
            assert!(cache_hit(&route_hit), "{case}");
            assert_eq!(answer(&route_hit), expected, "{case}: route-cache hit");
            fleet.stop();

            let fleet = Fleet::boot(&rows, 64 << 20);
            let direct_miss = fleet.direct(limit);
            assert!(!cache_hit(&direct_miss), "{case}");
            assert_eq!(answer(&direct_miss), expected, "{case}: direct miss");
            let routed_hit = fleet.routed(limit);
            assert!(cache_hit(&routed_hit), "{case}: the worker's hit, relayed");
            assert_eq!(answer(&routed_hit), expected, "{case}: routed worker hit");
            let in_process = fleet.worker.handle(Request::query("h", "t", spec(limit)));
            assert_eq!(answer(&in_process), expected, "{case}: in-process hit");
            fleet.stop();
        }

        // With the cache off every query executes and encodes only the
        // rows it returns; nothing is kept.
        let fleet = Fleet::boot(&rows, 0);
        for limit in limits {
            let expected = want(limit);
            let case = format!("{nrows} rows, cache off, limit {limit:?}");
            for response in [
                fleet.direct(limit),
                fleet.routed(limit),
                fleet.routed(limit),
            ] {
                assert_eq!(answer(&response), expected, "{case}");
            }
        }
        let stats = fleet.worker.stats_report();
        assert_eq!(stats.result_cache_entries, 0, "{stats:?}");
        assert_eq!(stats.result_cache_bytes, 0, "{stats:?}");
        assert_eq!(stats.result_cache_hits, 0, "{stats:?}");
        fleet.stop();
    }
}

/// The whole answer's rows as the worker encodes them.
fn whole_section(rows: &[Row]) -> RowSection {
    let reference = worker_over(&ctx(), rows, 0);
    let all = reference.handle(Request::query("all", "t", spec(Some(rows.len()))));
    RowSection::encode(&all.result.unwrap().rows)
}

#[test]
fn caches_are_charged_the_encoded_bytes_they_hold() {
    let rows = power_rows(300, true);
    let section = whole_section(&rows);
    let encoded = section.as_bytes().len();

    // The worker's entry is the whole answer's section.
    let fleet = Fleet::boot(&rows, 64 << 20);
    let first = fleet.direct(Some(1));
    assert!(first.is_ok() && !cache_hit(&first));
    let worker = fleet.worker.stats_report();
    assert_eq!(worker.result_cache_entries, 1, "{worker:?}");
    assert_eq!(worker.result_cache_bytes, encoded as u64, "{worker:?}");

    // A single-shard answer is charged the section the router relayed
    // (plus its column names): the whole section past the last row, a
    // cut of it below.
    let columns = first.result.as_ref().unwrap().columns.byte_size() as u64;
    let whole = fleet.routed(Some(1000));
    assert!(cache_hit(&whole), "the worker answers from its cache");
    let router = fleet.router.stats_report();
    assert_eq!(router.route_cache_entries, 1, "{router:?}");
    assert_eq!(router.route_cache_bytes, columns + encoded as u64);
    fleet.routed(Some(7));
    let cut = section.prefix(7).unwrap().as_bytes().len() as u64;
    let router = fleet.router.stats_report();
    assert_eq!(router.route_cache_entries, 2, "{router:?}");
    assert_eq!(router.route_cache_bytes, 2 * columns + encoded as u64 + cut);
    fleet.stop();

    // An answer whose encoding exceeds the budget is served, not kept.
    let fleet = Fleet::boot(&rows, encoded - 1);
    for _ in 0..2 {
        let response = fleet.direct(None);
        assert!(!cache_hit(&response));
        assert_eq!(response.result.as_ref().unwrap().rows.len(), rows.len());
    }
    let worker = fleet.worker.stats_report();
    assert_eq!(
        (worker.result_cache_entries, worker.result_cache_bytes),
        (0, 0),
        "{worker:?}"
    );
    fleet.stop();
}
