//! The worker and the router answer through one admission front, so they
//! must agree request for request: the same requests sent to an
//! in-process `QueryService` and to a `Router` in front of one TCP worker
//! over the same datasets get the same error codes, and both daemons
//! count them the same way.

mod common;

use std::sync::{Arc, Mutex};

use common::*;
use sjroute::{Router, RouterBackend, RouterConfig};
use sjserve::metrics::TenantStats;
use sjserve::protocol::{codes, Request, Response, Verb, PROTO_VERSION};
use sjserve::scheduler::SchedulerConfig;
use sjserve::server::EmissionSink;
use sjserve::service::{QueryService, ServiceConfig};
use sjserve::{Backend, Front, QuerySpec, RouterStatsReport, StatsReport};

const TENANT: &str = "t";

/// A connection's sink that keeps what is pushed to it.
#[derive(Default)]
struct Collect(Mutex<Vec<Response>>);

impl EmissionSink for Collect {
    fn send(&self, frame: &Response) -> std::io::Result<()> {
        self.0.lock().unwrap().push(frame.clone());
        Ok(())
    }
}

/// One table row: a request, whether it goes through `handle_streaming`
/// with a sink, and the error code both daemons must answer (`None`: ok).
struct Case {
    name: &'static str,
    request: Request,
    streaming: bool,
    code: Option<&'static str>,
}

fn case(name: &'static str, request: Request, code: Option<&'static str>) -> Case {
    Case {
        name,
        request,
        streaming: false,
        code,
    }
}

fn bare(id: &str, verb: Verb) -> Request {
    Request {
        tenant: TENANT.into(),
        ..Request::bare(id, verb)
    }
}

fn cases() -> Vec<Case> {
    let negative_window = QuerySpec {
        window_secs: Some(-1.0),
        ..power_spec()
    };
    let mut mismatch = Request::query("mismatch", TENANT, power_spec());
    mismatch.proto_version = Some(PROTO_VERSION + 1);
    vec![
        case("health", bare("health", Verb::Health), None),
        case("protocol mismatch", mismatch, Some(codes::PROTO_MISMATCH)),
        case(
            "query without a payload",
            bare("no-payload", Verb::Query),
            Some(codes::BAD_REQUEST),
        ),
        case(
            "empty domains and values",
            Request::query("empty", TENANT, QuerySpec::new([], [])),
            Some(codes::BAD_REQUEST),
        ),
        case(
            "negative window on a query",
            Request::query("window", TENANT, negative_window.clone()),
            Some(codes::BAD_REQUEST),
        ),
        Case {
            streaming: true,
            ..case(
                "negative window on a subscribe",
                Request::subscribe("sub-window", TENANT, negative_window),
                Some(codes::BAD_REQUEST),
            )
        },
        case(
            "subscribe without a sink",
            Request::subscribe("sub-plain", TENANT, power_spec()),
            Some(codes::STREAM_UNSUPPORTED),
        ),
        case(
            "append without a payload",
            bare("append", Verb::Append),
            Some(codes::BAD_REQUEST),
        ),
    ]
}

fn send<B: Backend>(front: &Front<B>, case: &Case) -> Option<String> {
    let sink: Arc<dyn EmissionSink> = Arc::new(Collect::default());
    let response = if case.streaming {
        front.handle_streaming(case.request.clone(), &sink)
    } else {
        front.handle(case.request.clone())
    };
    front.backend().connection_closed(&sink);
    response.code().map(String::from)
}

/// What both fronts count, read off either report.
#[derive(Debug, PartialEq)]
struct Counts {
    total: u64,
    ok: u64,
    error: u64,
    queue_full: u64,
    timed: u64,
    tenants: Vec<(String, u64, u64, u64)>,
}

fn tenants(per_tenant: &[TenantStats]) -> Vec<(String, u64, u64, u64)> {
    per_tenant
        .iter()
        .map(|t| (t.tenant.clone(), t.admitted, t.rejected, t.completed))
        .collect()
}

fn worker_counts(s: &StatsReport) -> Counts {
    Counts {
        total: s.requests_total,
        ok: s.requests_ok,
        error: s.requests_error,
        queue_full: s.rejected_queue_full,
        timed: s.latency_count,
        tenants: tenants(&s.per_tenant),
    }
}

fn router_counts(s: &RouterStatsReport) -> Counts {
    Counts {
        total: s.requests_total,
        ok: s.requests_ok,
        error: s.requests_error,
        queue_full: s.rejected_queue_full,
        timed: s.route_latency_count,
        tenants: tenants(&s.per_tenant),
    }
}

fn service(scheduler: SchedulerConfig) -> QueryService {
    let ctx = ctx();
    QueryService::new(
        ctx.clone(),
        catalog_with(&ctx, &["node_power", "node_temp"]),
        ServiceConfig {
            scheduler,
            ..ServiceConfig::default()
        },
    )
}

fn router(addr: &str, scheduler: SchedulerConfig) -> Router {
    let config = RouterConfig {
        scheduler,
        ..router_config()
    };
    Router::new(vec![addr.to_string()], config).expect("router boots")
}

#[test]
fn worker_and_router_fronts_agree_request_for_request() {
    let worker = spawn(worker(&ctx(), &["node_power", "node_temp"], "shard-0"));
    let addr = worker.addr.to_string();
    let sized = router_config().scheduler;
    let full = SchedulerConfig {
        max_queue: 0,
        ..sized.clone()
    };
    // The second pair admits nothing, so a well-formed query is refused.
    let pairs = [
        (service(sized.clone()), router(&addr, sized)),
        (service(full.clone()), router(&addr, full)),
    ];
    let queue_full = [case(
        "queue full",
        Request::query("full", TENANT, power_spec()),
        Some(codes::QUEUE_FULL),
    )];

    for ((service, router), table) in pairs.iter().zip([cases(), queue_full.into()]) {
        let routed: &Front<RouterBackend> = router;
        for case in &table {
            let (at_worker, at_router) = (send(service, case), send(routed, case));
            assert_eq!(at_worker.as_deref(), case.code, "worker: {}", case.name);
            assert_eq!(at_router.as_deref(), case.code, "router: {}", case.name);
        }
        let (w, r) = (
            worker_counts(&service.shutdown()),
            router_counts(&router.shutdown()),
        );
        assert_eq!(w, r, "the two fronts count differently");
        assert_eq!(w.total, table.len() as u64, "{w:?}");
        assert_eq!(w.timed, w.ok + w.error, "{w:?}");
    }
    worker.stop();
}
