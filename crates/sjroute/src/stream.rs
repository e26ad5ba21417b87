//! Streamed fan-out: standing queries served *through* the router.
//!
//! A `subscribe: true` query arriving on the router opens one upstream
//! subscription per live worker whose own catalog reproduces the
//! reference plan (the same routability test batch queries use, so
//! every fed worker executes byte-identical derivations). Appends
//! forwarded by the router reach **all** live owners of the dataset in
//! the same order, whichever client connections they came on: the
//! router holds every live owner's append lock from the first send to
//! the last ack ([`crate::router::RouterBackend`]'s `append`). So each
//! fed worker sees the same accepted prefix and — window evaluation
//! being deterministic over that prefix — emits the same frame sequence
//! a single-node `sjserved` would. A replica whose ack disagrees with
//! the first owner's holds another prefix, and is lost like one that
//! missed the batch.
//!
//! The router merges those per-worker frame streams in lockstep: one
//! reader thread per worker pushes incoming frames onto that worker's
//! queue, and a merge pass pops one frame from every live queue
//! whenever all of them are non-empty, forwarding a single copy to the
//! client (ids rewritten to the router-minted subscription id). Because
//! each worker's emission order is watermark-monotone, "pop when every
//! live queue has a head" *is* the fleet watermark rule: a frame goes
//! out exactly when the slowest live worker has reached it, i.e. the
//! fleet watermark — the minimum over live workers — has passed its
//! window.
//!
//! Worker loss mid-subscription (a dead feed connection, or an append
//! forward that failed or was acked differently and therefore broke
//! that worker's accepted prefix) marks the feed dead: it stops gating
//! the merge and its queued frames are discarded (the remaining live
//! feeds carry identical copies). When the *last* feed dies the client gets one
//! structured `worker_unavailable` error frame and the subscription is
//! torn down — degraded, never hung.

use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sjserve::client::Client;
use sjserve::protocol::{codes, ErrorBody, Response};
use sjserve::server::EmissionSink;

use crate::router::RouterInner;

/// One worker's frame feed for one routed subscription.
pub(crate) struct WorkerFeed {
    /// Index into `Topology::workers`.
    pub(crate) idx: usize,
    /// Live = still gating the merge. Feeds only ever go live → dead:
    /// a worker that missed even one forwarded append has a diverged
    /// accepted prefix and can never rejoin the lockstep.
    alive: AtomicBool,
    /// Watermark of the last frame this worker delivered (µs).
    watermark_us: AtomicI64,
    /// Frames delivered but not yet merged.
    queue: Mutex<VecDeque<Response>>,
    /// Clone of the feed connection's socket, so teardown can unblock
    /// the reader thread's blocking read.
    socket: TcpStream,
}

impl WorkerFeed {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }
}

/// One standing query routed across the fleet.
pub(crate) struct RouterSub {
    /// Router-minted subscription id (`rs…`); every frame the client
    /// sees carries this, never a worker's own id.
    pub(crate) query_id: String,
    /// The client's subscribe request id, echoed on every frame.
    request_id: String,
    /// The client connection's sink.
    sink: Arc<dyn EmissionSink>,
    feeds: Vec<Arc<WorkerFeed>>,
    /// Serializes merge passes across the reader threads.
    merge: Mutex<()>,
    closed: AtomicBool,
}

impl RouterSub {
    fn closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Every routed subscription currently open.
pub(crate) struct RouterStreams {
    subs: Mutex<Vec<Arc<RouterSub>>>,
}

impl RouterStreams {
    pub(crate) fn new() -> Self {
        RouterStreams {
            subs: Mutex::new(Vec::new()),
        }
    }

    /// Open a routed subscription over already-subscribed worker
    /// clients and start its reader threads.
    pub(crate) fn open(
        inner: &Arc<RouterInner>,
        query_id: String,
        request_id: String,
        sink: &Arc<dyn EmissionSink>,
        workers: Vec<(usize, Client)>,
    ) -> Arc<RouterSub> {
        let mut feeds = Vec::with_capacity(workers.len());
        let mut readers = Vec::with_capacity(workers.len());
        for (idx, client) in workers {
            let socket = client
                .socket_handle()
                .expect("feed socket clones (just connected)");
            let feed = Arc::new(WorkerFeed {
                idx,
                alive: AtomicBool::new(true),
                watermark_us: AtomicI64::new(i64::MIN),
                queue: Mutex::new(VecDeque::new()),
                socket,
            });
            feeds.push(Arc::clone(&feed));
            readers.push((feed, client));
        }
        let sub = Arc::new(RouterSub {
            query_id,
            request_id,
            sink: Arc::clone(sink),
            feeds,
            merge: Mutex::new(()),
            closed: AtomicBool::new(false),
        });
        inner.streams.subs.lock().push(Arc::clone(&sub));
        inner.metrics.update(|r| r.streams_active += 1);
        for (feed, client) in readers {
            let inner = Arc::clone(inner);
            let sub = Arc::clone(&sub);
            let name = format!("sjroute-feed-w{}", feed.idx);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || reader_loop(&inner, &sub, &feed, client))
                .expect("spawn feed reader");
        }
        sub
    }

    /// A forwarded append failed against worker `idx`, or its ack
    /// disagreed with the first owner's: its accepted prefix has
    /// diverged from the fleet's, so every subscription it feeds must
    /// stop trusting it. Its feeds leave the merge now, and shutting
    /// their sockets makes each reader thread run the merge/teardown
    /// logic on its own path.
    pub(crate) fn worker_lost(&self, inner: &RouterInner, idx: usize) {
        let subs: Vec<Arc<RouterSub>> = self.subs.lock().clone();
        for sub in subs {
            for feed in sub.feeds.iter().filter(|f| f.idx == idx) {
                if feed.alive.swap(false, Ordering::AcqRel) && !sub.closed() {
                    inner.metrics.update(|r| r.stream_worker_losses += 1);
                }
                let _ = feed.socket.shutdown(Shutdown::Both);
            }
        }
    }

    /// Whether worker `idx` still feeds an open routed subscription.
    pub(crate) fn feeding(&self, idx: usize) -> bool {
        self.subs
            .lock()
            .iter()
            .any(|sub| sub.feeds.iter().any(|f| f.idx == idx && f.alive()))
    }

    /// The client connection owning `sink` ended: tear down every
    /// subscription bound to it.
    pub(crate) fn connection_closed(&self, inner: &RouterInner, sink: &Arc<dyn EmissionSink>) {
        let bound: Vec<Arc<RouterSub>> = self
            .subs
            .lock()
            .iter()
            .filter(|s| Arc::ptr_eq(&s.sink, sink))
            .cloned()
            .collect();
        for sub in bound {
            self.close(inner, &sub);
        }
    }

    /// Router shutdown: tear down everything.
    pub(crate) fn shutdown_all(&self, inner: &RouterInner) {
        let all: Vec<Arc<RouterSub>> = self.subs.lock().clone();
        for sub in all {
            self.close(inner, &sub);
        }
    }

    fn close(&self, inner: &RouterInner, sub: &Arc<RouterSub>) {
        if sub.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Shutting the sockets drops the worker-side subscriptions
        // (their connections close) and unblocks the reader threads.
        for feed in &sub.feeds {
            let _ = feed.socket.shutdown(Shutdown::Both);
        }
        self.subs.lock().retain(|s| !Arc::ptr_eq(s, sub));
        // Saturating: teardown paths may race connection close.
        inner
            .metrics
            .update(|r| r.streams_active = r.streams_active.saturating_sub(1));
    }
}

/// One worker's feed: read frames until the connection dies or the
/// subscription closes, running a merge pass after every event.
fn reader_loop(
    inner: &Arc<RouterInner>,
    sub: &Arc<RouterSub>,
    feed: &Arc<WorkerFeed>,
    mut client: Client,
) {
    loop {
        if sub.closed() {
            return;
        }
        match client.next_frame() {
            Ok(frame) => {
                if let Some(w) = &frame.window {
                    feed.watermark_us.store(w.watermark_us, Ordering::Relaxed);
                }
                inner.metrics.update(|r| r.stream_worker_frames += 1);
                feed.queue.lock().push_back(frame);
                pump(inner, sub);
            }
            Err(_) => {
                // Feed connection gone (worker died, or teardown shut
                // the socket). Mark the feed dead, let the merge
                // continue over the survivors, and if none remain give
                // the client a structured error instead of silence.
                let was_alive = feed.alive.swap(false, Ordering::AcqRel);
                if was_alive && !sub.closed() {
                    inner.metrics.update(|r| r.stream_worker_losses += 1);
                }
                pump(inner, sub);
                if !sub.closed() && !sub.feeds.iter().any(|f| f.alive()) {
                    let mut frame = Response::fail(
                        &sub.request_id,
                        ErrorBody::new(
                            codes::WORKER_UNAVAILABLE,
                            "every worker feeding this standing query is unreachable; \
                             subscription closed",
                        ),
                    );
                    frame.query_id = Some(sub.query_id.clone());
                    let _ = sub.sink.send(&frame);
                    inner.streams.close(inner, sub);
                }
                return;
            }
        }
    }
}

/// Merge pass: while every live feed has a queued frame, pop one from
/// each and forward a single copy (the feeds carry identical bytes —
/// that is the routability guarantee) with ids rewritten to the
/// router's. A frame without a `window` payload is a worker-side
/// subscription failure (the engine already dropped the standing
/// query): forward it and tear the routed subscription down, matching
/// single-node semantics.
fn pump(inner: &Arc<RouterInner>, sub: &Arc<RouterSub>) {
    let _guard = sub.merge.lock();
    loop {
        if sub.closed() {
            return;
        }
        let live: Vec<&Arc<WorkerFeed>> = sub.feeds.iter().filter(|f| f.alive()).collect();
        if live.is_empty() || live.iter().any(|f| f.queue.lock().is_empty()) {
            return;
        }
        let mut heads: Vec<Response> = live
            .iter()
            .map(|f| f.queue.lock().pop_front().expect("checked non-empty"))
            .collect();
        let mut frame = heads.swap_remove(0);
        frame.id = sub.request_id.clone();
        frame.query_id = Some(sub.query_id.clone());
        if let Some(w) = frame.window.as_mut() {
            w.query_id = sub.query_id.clone();
        }
        let re_emission = frame.window.as_ref().is_some_and(|w| w.re_emission);
        let tear_down = frame.window.is_none();
        if sub.sink.send(&frame).is_err() {
            // Client gone; the connection teardown will also land here
            // via `connection_closed`, but don't wait for it.
            inner.streams.close(inner, sub);
            return;
        }
        inner.metrics.update(|r| {
            r.stream_frames_pushed += 1;
            r.stream_re_emissions += u64::from(re_emission);
        });
        if tear_down {
            inner.streams.close(inner, sub);
            return;
        }
    }
}
