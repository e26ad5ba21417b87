//! Task execution: run per-partition tasks on a persistent executor pool,
//! with fault tolerance.
//!
//! Each [`ExecCtx`] owns one long-lived [`WorkerPool`] (sized by
//! [`ClusterSpec::local_threads`]) that is shared by every clone of the
//! context — evaluation waves no longer spawn threads. A wave distributes
//! partition indices over runners with a shared atomic cursor; the thread
//! that starts the wave always runs tasks itself (caller-helping), which
//! is what keeps nested waves deadlock-free — see [`crate::pool`] for the
//! argument. The context also carries the [`StageCache`], the byte-
//! budgeted memory layer behind [`Rdd::persist`](crate::Rdd::persist) and
//! auto-persisted shuffle outputs.
//!
//! # Fault tolerance
//!
//! A failed task attempt (a panic — genuine or injected by a
//! [`FaultPlan`]) is retried on the same lineage up to
//! [`RetryPolicy::max_attempts`] times with exponential backoff. Because
//! shuffle outputs and persisted partitions live in the [`StageCache`]
//! with exactly-once slots, a retry recomputes only the failed partition:
//! everything already materialized is fetched back from cache. When the
//! budget is exhausted the wave fails with
//! [`SjdfError::ExhaustedRetries`]; with the default budget of one
//! attempt, behavior is the classic fail-fast [`SjdfError::TaskPanic`].
//! A permanent failure does not cut the wave short: every partition runs
//! its retry loop to the end and the wave reports the lowest-index
//! failure, so which attempts ran — and which faults a [`FaultPlan`]
//! injected — depends only on the plan, never on thread timing.
//!
//! Straggler tasks can additionally be re-executed speculatively: when a
//! [`SpeculationPolicy`] is set, the wave's initiating thread watches for
//! claimed-but-unsettled tasks running far beyond the median task
//! duration and races a fresh attempt against them; the first to settle
//! the partition wins. All failure and recovery activity is counted in
//! the collector's [`FailureReport`](crate::metrics::FailureReport).

use crate::cluster::ClusterSpec;
use crate::error::{Result, SjdfError};
use crate::faults::{Fault, FaultPlan, FaultSite, INJECTED};
use crate::metrics::{FailureReport, MetricsCollector};
use crate::pool::WorkerPool;
use crate::stagecache::StageCache;
use sjtrace::{SpanId, Tracer};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How hard the executor tries to complete a task before giving up.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per task (first run + retries). `1` (the default)
    /// is classic fail-fast: any panic aborts the wave.
    pub max_attempts: u32,
    /// Backoff slept before the first retry.
    pub backoff: Duration,
    /// Growth factor applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// When set, stragglers are raced by speculative re-execution.
    pub speculation: Option<SpeculationPolicy>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(1),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(100),
            speculation: None,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts per task, with
    /// default backoff and no speculation.
    pub fn retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Override the exponential-backoff parameters.
    pub fn with_backoff(mut self, base: Duration, multiplier: f64, cap: Duration) -> Self {
        self.backoff = base;
        self.backoff_multiplier = multiplier;
        self.max_backoff = cap;
        self
    }

    /// Enable speculative re-execution of stragglers.
    pub fn with_speculation(mut self, speculation: SpeculationPolicy) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Backoff to sleep after failed attempt number `attempt` (0-based):
    /// `backoff * multiplier^attempt`, capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = self
            .backoff_multiplier
            .max(1.0)
            .powi(attempt.min(30) as i32);
        let secs = self.backoff.as_secs_f64() * factor;
        Duration::from_secs_f64(secs.min(self.max_backoff.as_secs_f64()))
    }
}

/// When a running task counts as a straggler worth racing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationPolicy {
    /// A task is suspect once it has run `multiplier ×` the median
    /// duration of the wave's already-completed tasks.
    pub multiplier: f64,
    /// Never speculate on tasks younger than this, whatever the median.
    pub min_runtime: Duration,
    /// How often the initiating thread re-checks for stragglers.
    pub check_interval: Duration,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            multiplier: 4.0,
            min_runtime: Duration::from_millis(20),
            check_interval: Duration::from_millis(2),
        }
    }
}

thread_local! {
    /// Attempt number of the task currently running on this thread; fault
    /// decisions at inner injection sites (shuffle fetches) key off it so
    /// a retried task re-rolls its fetch faults too.
    static CURRENT_ATTEMPT: Cell<u32> = const { Cell::new(0) };
}

/// The attempt number of the task executing on this thread (0 outside
/// any task).
pub(crate) fn current_attempt() -> u32 {
    CURRENT_ATTEMPT.with(|c| c.get())
}

/// Scope guard that sets the thread's current attempt and restores the
/// previous value on drop — nested waves each see their own attempt.
struct AttemptScope {
    prev: u32,
}

impl AttemptScope {
    fn enter(attempt: u32) -> Self {
        AttemptScope {
            prev: CURRENT_ATTEMPT.with(|c| c.replace(attempt)),
        }
    }
}

impl Drop for AttemptScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_ATTEMPT.with(|c| c.set(prev));
    }
}

/// If the plan injects a failure for this task attempt, record it and
/// return the panic message to fail with; injected delays are slept here.
fn injected_task_failure(
    plan: Option<&FaultPlan>,
    metrics: &MetricsCollector,
    part: usize,
    attempt: u32,
) -> Option<String> {
    match plan?.decide(FaultSite::Task, part, attempt) {
        Some(Fault::Fail) => {
            metrics.record_injected_task_fault();
            Some(format!(
                "{INJECTED} task failure (partition {part}, attempt {attempt})"
            ))
        }
        Some(Fault::Delay(d)) => {
            metrics.record_injected_delay();
            std::thread::sleep(d);
            None
        }
        None => None,
    }
}

/// Execution options shared by every clone of one [`ExecCtx`] (datasets
/// snapshot the context at build time, so per-clone options would never
/// reach already-built lineages).
#[derive(Debug, Default)]
struct ExecOpts {
    retry: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    /// When set, datasets built on this context keep the legacy rowwise
    /// `Vec<Row>` partition layout instead of columnar batches. Used by
    /// the byte-identity probe and the kernel benchmarks to compare the
    /// two execute paths; production contexts leave it off.
    rowwise: bool,
}

/// Shared execution context: the virtual cluster, the executor pool, the
/// stage cache, the retry policy, the metrics sink, and (in chaos tests)
/// a fault plan.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// The virtual cluster this computation is configured (and costed) for.
    pub cluster: ClusterSpec,
    /// Sink that all tasks report metrics into.
    pub metrics: Arc<MetricsCollector>,
    pool: Arc<WorkerPool>,
    stage_cache: Arc<StageCache>,
    opts: Arc<Mutex<ExecOpts>>,
    tracer: Tracer,
}

impl ExecCtx {
    /// Context for the given virtual cluster, spawning its executor pool.
    pub fn new(cluster: ClusterSpec) -> Self {
        let pool = WorkerPool::new(cluster.local_threads());
        ExecCtx {
            cluster,
            metrics: MetricsCollector::new(),
            pool,
            stage_cache: StageCache::new(),
            opts: Arc::new(Mutex::new(ExecOpts::default())),
            tracer: Tracer::new(),
        }
    }

    /// Context for a single-machine cluster sized to the host.
    pub fn local() -> Self {
        ExecCtx::new(ClusterSpec::local())
    }

    /// The same cluster with a fresh, empty metrics sink. A query service
    /// hands each request one of these so per-request [`MetricsReport`]s
    /// are isolated instead of accumulating into one shared collector.
    /// The executor pool, stage cache, retry policy, and fault plan are
    /// shared, not re-created.
    ///
    /// [`MetricsReport`]: crate::metrics::MetricsReport
    pub fn with_fresh_metrics(&self) -> Self {
        ExecCtx {
            cluster: self.cluster.clone(),
            metrics: MetricsCollector::new(),
            pool: Arc::clone(&self.pool),
            stage_cache: Arc::clone(&self.stage_cache),
            opts: Arc::clone(&self.opts),
            tracer: self.tracer.clone(),
        }
    }

    /// Use the given retry policy for every wave run on this context
    /// (builder form of [`ExecCtx::set_retry`]).
    pub fn with_retry(self, retry: RetryPolicy) -> Self {
        self.set_retry(retry);
        self
    }

    /// Use the given retry policy for every wave run on this context.
    /// Shared by all clones, so it also governs datasets built from this
    /// context before the call.
    pub fn set_retry(&self, retry: RetryPolicy) {
        lock(&self.opts).retry = retry;
    }

    /// Install a deterministic fault plan (builder form of
    /// [`ExecCtx::set_faults`]).
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.set_faults(Some(plan));
        self
    }

    /// Remove any installed fault plan — from every clone of this
    /// context. Reference (fault-free) runs should use a separate
    /// context rather than toggling a shared one mid-flight.
    pub fn without_faults(self) -> Self {
        self.set_faults(None);
        self
    }

    /// Install or clear the fault plan consulted by every task attempt
    /// and shuffle fetch executed through this context (all clones).
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        lock(&self.opts).faults = plan.map(Arc::new);
    }

    /// Keep the legacy rowwise partition layout for datasets built on
    /// this context (builder form of [`ExecCtx::set_rowwise`]). The
    /// rowwise path is the baseline the columnar execute path is
    /// byte-compared and benchmarked against.
    pub fn with_rowwise(self) -> Self {
        self.set_rowwise(true);
        self
    }

    /// Toggle the rowwise fallback layout — shared by all clones.
    pub fn set_rowwise(&self, rowwise: bool) {
        lock(&self.opts).rowwise = rowwise;
    }

    /// True (the default) when datasets built on this context use
    /// columnar partition batches on the execute path.
    pub fn columnar(&self) -> bool {
        !lock(&self.opts).rowwise
    }

    /// The retry policy waves run under (a snapshot).
    pub fn retry_policy(&self) -> RetryPolicy {
        lock(&self.opts).retry.clone()
    }

    /// The installed fault plan, if any (a snapshot).
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        lock(&self.opts).faults.clone()
    }

    /// The span tracer shared by every clone of this context (including
    /// [`ExecCtx::with_fresh_metrics`] clones, so a service can trace all
    /// requests through one sink). Created disabled; call
    /// [`Tracer::enable`] to start recording.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Tag the metrics collector with a correlation id; it is echoed on
    /// every [`FailureReport`] the collector produces, so executor-side
    /// failure accounting can be matched to the originating request even
    /// when requests run concurrently.
    pub fn set_query_id(&self, id: Option<String>) {
        self.metrics.set_query_id(id);
    }

    /// Open a `job` span for one action (`collect`, `count`, ...) on the
    /// calling thread. A no-op guard when tracing is disabled.
    pub(crate) fn job_span(&self, action: &'static str) -> sjtrace::SpanGuard {
        let mut span = self.tracer.span("job");
        if span.is_recording() {
            span.set_detail(format!("action={action}"));
        }
        span
    }

    /// Open a `shuffle_fetch` span around one bucket fetch.
    pub(crate) fn shuffle_fetch_span(&self, op: &'static str, part: usize) -> sjtrace::SpanGuard {
        let mut span = self.tracer.span("shuffle_fetch");
        if span.is_recording() {
            span.set_detail(format!("op={op} part={part}"));
        }
        span
    }

    /// Snapshot of the failure/recovery counters recorded so far.
    pub fn failure_report(&self) -> FailureReport {
        self.metrics.failure_report()
    }

    /// The byte-budgeted memory layer behind `persist()` and shuffle
    /// auto-persist, shared by all clones of this context.
    pub fn stage_cache(&self) -> &Arc<StageCache> {
        &self.stage_cache
    }

    /// Set the stage-cache byte budget (LRU entries beyond it are
    /// evicted and recomputed on next use). Convenience passthrough.
    pub fn set_cache_budget(&self, bytes: u64) {
        self.stage_cache.set_budget(bytes);
    }

    /// Fault-injection hook for shuffle-bucket fetches: panics with an
    /// injected-fault message when the plan fails this fetch. The fetch
    /// is keyed by the *consuming* task's attempt, so a retried consumer
    /// re-rolls its fetch faults.
    pub(crate) fn check_shuffle_fetch(&self, op: &str, part: usize) {
        if let Some(plan) = self.faults() {
            let attempt = current_attempt();
            let stream = crate::faults::stream_of(op);
            if plan.decide_at(FaultSite::ShuffleFetch, stream, part, attempt) == Some(Fault::Fail) {
                self.metrics.record_injected_shuffle_fault();
                if self.tracer.enabled() {
                    self.tracer.instant(
                        "fault_injected",
                        format!("shuffle_fetch op={op} part={part} attempt={attempt}"),
                    );
                }
                panic!(
                    "{INJECTED} shuffle fetch failure \
                     (op `{op}`, partition {part}, attempt {attempt})"
                );
            }
        }
    }

    /// Run one partition task on the *calling* thread under this
    /// context's retry policy and fault plan — the single-task analogue
    /// of [`ExecCtx::run_wave`], used by inline actions like `take()` so
    /// injected faults surface as errors, never as caller panics.
    pub(crate) fn run_inline<T>(&self, part: usize, task: impl Fn() -> T) -> Result<T> {
        let policy = self.retry_policy();
        let faults = self.faults();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let outcome = {
                let mut span = self.tracer.span("task");
                if span.is_recording() {
                    span.set_detail(format!("part={part} attempt={attempt} inline"));
                }
                let result =
                    match injected_task_failure(faults.as_deref(), &self.metrics, part, attempt) {
                        Some(msg) => {
                            if span.is_recording() {
                                self.tracer.instant(
                                    "fault_injected",
                                    format!("task part={part} attempt={attempt}"),
                                );
                            }
                            Err(msg)
                        }
                        None => {
                            let _scope = AttemptScope::enter(attempt);
                            catch_unwind(AssertUnwindSafe(&task)).map_err(|p| panic_message(&*p))
                        }
                    };
                if result.is_err() {
                    span.fail();
                }
                result
            };
            match outcome {
                Ok(v) => return Ok(v),
                Err(msg) => {
                    self.metrics.record_task_failure();
                    attempt += 1;
                    if attempt >= max_attempts {
                        return Err(if max_attempts <= 1 {
                            SjdfError::TaskPanic(msg)
                        } else {
                            self.metrics.record_task_exhausted();
                            SjdfError::ExhaustedRetries {
                                partition: part,
                                attempts: attempt,
                                last_error: msg,
                            }
                        });
                    }
                    let backoff = policy.backoff_for(attempt - 1);
                    self.metrics.record_task_retry(backoff);
                    if self.tracer.enabled() {
                        self.tracer.instant(
                            "retry",
                            format!("part={part} next_attempt={attempt} inline"),
                        );
                    }
                    if !backoff.is_zero() {
                        let mut pause = self.tracer.span("backoff");
                        if pause.is_recording() {
                            pause.set_detail(format!("part={part} inline"));
                        }
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }

    /// Run `task(i)` for every `i in 0..parts`, in parallel on up to
    /// [`ClusterSpec::local_threads`] runners (the calling thread plus
    /// pool workers), returning results in partition order. Failed
    /// attempts are retried per the context's [`RetryPolicy`].
    pub fn run_wave<T, F>(&self, parts: usize, task: F) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if parts == 0 {
            return Ok(Vec::new());
        }
        let threads = self.cluster.local_threads().min(parts);
        let mut wave_span = self.tracer.span("wave");
        if wave_span.is_recording() {
            wave_span.set_detail(format!("parts={parts} threads={threads}"));
        }
        let wave = Arc::new(Wave::new(
            parts,
            task,
            self.retry_policy(),
            self.faults(),
            Arc::clone(&self.metrics),
            (self.tracer.clone(), wave_span.id(), wave_span.root()),
        ));
        // One runner job per extra thread; the caller is the last runner.
        // Correctness never depends on a job being picked up — stale jobs
        // from an already-finished wave exit via the exhausted cursor.
        for _ in 1..threads {
            let wave = Arc::clone(&wave);
            self.pool.submit(Box::new(move || wave.run()));
        }
        // Speculation must not depend on a runner being free — on a
        // single-core host every runner may be the straggler — so a
        // dedicated monitor thread owns the straggler scan.
        let monitor = if wave.policy.speculation.is_some() {
            let wave = Arc::clone(&wave);
            Some(std::thread::spawn(move || wave.speculate_until_settled()))
        } else {
            None
        };
        wave.run();
        wave.wait();
        if let Some(monitor) = monitor {
            let _ = monitor.join();
        }
        let result = wave.finish();
        if result.is_err() {
            wave_span.fail();
        }
        result
    }
}

/// Per-partition state of one evaluation wave.
struct Slot<T> {
    /// The settled result, if the settling attempt succeeded.
    value: Mutex<Option<T>>,
    /// Exactly one attempt settles a slot; later finishers are discarded.
    settled: AtomicBool,
    /// Microseconds (+1) since the wave's epoch when the task was first
    /// claimed; 0 = unclaimed. Drives straggler detection.
    started_us: AtomicU64,
    /// Set once a speculative attempt has been launched for this slot.
    speculated: AtomicBool,
    /// Count of speculative attempts (their attempt ids are offset past
    /// the retry budget so fault decisions stay distinct).
    spec_attempts: AtomicU32,
}

/// Shared state of one evaluation wave.
struct Wave<T, F> {
    task: F,
    parts: usize,
    /// Next unclaimed partition index.
    cursor: AtomicUsize,
    slots: Vec<Slot<T>>,
    /// Count of settled partitions (completed or failed).
    done: AtomicUsize,
    /// The lowest-index permanent failure and its partition.
    lowest_failure: Mutex<Option<(usize, SjdfError)>>,
    complete: Mutex<bool>,
    completed: Condvar,
    policy: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    metrics: Arc<MetricsCollector>,
    epoch: Instant,
    /// Durations (µs) of completed tasks, for the straggler median.
    durations_us: Mutex<Vec<u64>>,
    tracer: Tracer,
    /// The wave span's id and root, passed explicitly to task spans
    /// because attempts run on pool threads whose span stacks do not hold
    /// the wave span (it lives on the initiating thread).
    span: SpanId,
    root: SpanId,
}

impl<T, F> Wave<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn new(
        parts: usize,
        task: F,
        policy: RetryPolicy,
        faults: Option<Arc<FaultPlan>>,
        metrics: Arc<MetricsCollector>,
        trace: (Tracer, SpanId, SpanId),
    ) -> Self {
        Wave {
            task,
            parts,
            cursor: AtomicUsize::new(0),
            slots: (0..parts)
                .map(|_| Slot {
                    value: Mutex::new(None),
                    settled: AtomicBool::new(false),
                    started_us: AtomicU64::new(0),
                    speculated: AtomicBool::new(false),
                    spec_attempts: AtomicU32::new(0),
                })
                .collect(),
            done: AtomicUsize::new(0),
            lowest_failure: Mutex::new(None),
            complete: Mutex::new(false),
            completed: Condvar::new(),
            policy,
            faults,
            metrics,
            epoch: Instant::now(),
            durations_us: Mutex::new(Vec::new()),
            tracer: trace.0,
            span: trace.1,
            root: trace.2,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Claim and run task indices until the cursor is exhausted, then —
    /// when speculation is enabled — stay with the wave to race
    /// stragglers until every slot settles. Called by pool workers and by
    /// the wave's initiating thread alike, so *any* free runner can
    /// speculate (the initiating thread may itself be stuck running the
    /// straggler).
    fn run(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.parts {
                break;
            }
            self.run_partition(i);
        }
        self.speculate_until_settled();
    }

    /// Drive one partition through its retry loop until it settles.
    fn run_partition(&self, i: usize) {
        self.slots[i]
            .started_us
            .store(self.now_us() + 1, Ordering::Release);
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            if self.slots[i].settled.load(Ordering::Acquire) {
                // A speculative attempt won the race.
                return;
            }
            match self.execute_attempt(i, attempt, false) {
                Ok(v) => {
                    self.settle_value(i, v, false);
                    return;
                }
                Err(msg) => {
                    self.metrics.record_task_failure();
                    if self.slots[i].settled.load(Ordering::Acquire) {
                        // A speculative attempt already settled this
                        // partition; this failure is moot.
                        return;
                    }
                    attempt += 1;
                    if attempt >= max_attempts {
                        let err = if max_attempts <= 1 {
                            SjdfError::TaskPanic(msg)
                        } else {
                            self.metrics.record_task_exhausted();
                            SjdfError::ExhaustedRetries {
                                partition: i,
                                attempts: attempt,
                                last_error: msg,
                            }
                        };
                        let mut first = lock(&self.lowest_failure);
                        if first.as_ref().is_none_or(|(j, _)| i < *j) {
                            *first = Some((i, err));
                        }
                        drop(first);
                        self.settle_failed(i);
                        return;
                    }
                    let backoff = self.policy.backoff_for(attempt - 1);
                    self.metrics.record_task_retry(backoff);
                    if self.tracer.enabled() {
                        self.tracer.instant_under(
                            "retry",
                            format!(
                                "part={i} next_attempt={attempt} backoff_us={}",
                                backoff.as_micros()
                            ),
                            self.span,
                            self.root,
                        );
                    }
                    if !backoff.is_zero() {
                        let mut pause = self.tracer.child_span("backoff", self.span, self.root);
                        if pause.is_recording() {
                            pause.set_detail(format!("part={i}"));
                        }
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }

    /// One attempt: consult the fault plan, then run the task under
    /// `catch_unwind`. Returns the panic message on failure. The whole
    /// attempt — injection check included — runs under a `task` span that
    /// is closed and marked failed on any error, so a killed attempt
    /// still produces a well-formed span. Speculative attempts are
    /// detached: they may outlive the wave span when they lose the race.
    fn execute_attempt(
        &self,
        i: usize,
        attempt: u32,
        speculative: bool,
    ) -> std::result::Result<T, String> {
        let mut span = self.tracer.child_span("task", self.span, self.root);
        if span.is_recording() {
            if speculative {
                span.detach();
            }
            span.set_detail(format!(
                "part={i} attempt={attempt}{}",
                if speculative { " speculative" } else { "" }
            ));
        }
        if let Some(msg) = injected_task_failure(self.faults.as_deref(), &self.metrics, i, attempt)
        {
            if span.is_recording() {
                self.tracer
                    .instant("fault_injected", format!("task part={i} attempt={attempt}"));
            }
            span.fail();
            return Err(msg);
        }
        let _scope = AttemptScope::enter(attempt);
        let result =
            catch_unwind(AssertUnwindSafe(|| (self.task)(i))).map_err(|p| panic_message(&*p));
        if result.is_err() {
            span.fail();
        }
        result
    }

    /// Settle a slot with a computed value; exactly one settler wins.
    fn settle_value(&self, i: usize, v: T, speculative: bool) {
        let slot = &self.slots[i];
        if !slot.settled.swap(true, Ordering::AcqRel) {
            *lock(&slot.value) = Some(v);
            let started = slot.started_us.load(Ordering::Acquire);
            if started > 0 {
                lock(&self.durations_us).push(self.now_us().saturating_sub(started - 1));
            }
            if speculative {
                self.metrics.record_speculative_win();
                if self.tracer.enabled() {
                    self.tracer.instant_under(
                        "speculative_win",
                        format!("part={i}"),
                        self.span,
                        self.root,
                    );
                }
            }
            self.bump_done();
        }
    }

    /// Settle a slot without a value after a permanent failure. A no-op
    /// if a speculative attempt already settled it.
    fn settle_failed(&self, i: usize) {
        if !self.slots[i].settled.swap(true, Ordering::AcqRel) {
            self.bump_done();
        }
    }

    fn bump_done(&self) {
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.parts {
            let mut complete = lock(&self.complete);
            *complete = true;
            self.completed.notify_all();
        }
    }

    /// Block until every partition settled. The caller has already run
    /// [`Wave::run`], so it only ever waits on tasks claimed by live pool
    /// workers — never on an unclaimed task.
    fn wait(&self) {
        let mut complete = lock(&self.complete);
        while !*complete {
            complete = self
                .completed
                .wait(complete)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Periodically scan for stragglers and race fresh attempts against
    /// them inline. Returns when the wave completes or fails; a no-op
    /// without a speculation policy (or for a stale runner job whose wave
    /// already finished).
    fn speculate_until_settled(&self) {
        let Some(spec) = self.policy.speculation.clone() else {
            return;
        };
        loop {
            {
                let complete = lock(&self.complete);
                if *complete {
                    return;
                }
                let (guard, _timed_out) = self
                    .completed
                    .wait_timeout(complete, spec.check_interval)
                    .unwrap_or_else(|poison| poison.into_inner());
                if *guard {
                    return;
                }
            }
            if let Some(i) = self.straggler(&spec) {
                self.run_speculative(i);
            }
        }
    }

    /// A claimed, unsettled, not-yet-speculated slot whose elapsed time
    /// exceeds both the policy floor and `multiplier ×` the median
    /// completed-task duration (just the floor until a task completes —
    /// on a serial context the straggler may be the *first* task).
    fn straggler(&self, spec: &SpeculationPolicy) -> Option<usize> {
        let mut durations = lock(&self.durations_us).clone();
        durations.sort_unstable();
        let median = durations.get(durations.len() / 2).copied().unwrap_or(0);
        let threshold =
            (spec.min_runtime.as_micros() as u64).max((median as f64 * spec.multiplier) as u64);
        let now = self.now_us();
        for (i, slot) in self.slots.iter().enumerate() {
            let started = slot.started_us.load(Ordering::Acquire);
            if started == 0
                || slot.settled.load(Ordering::Acquire)
                || slot.speculated.load(Ordering::Acquire)
            {
                continue;
            }
            if now.saturating_sub(started - 1) > threshold {
                return Some(i);
            }
        }
        None
    }

    /// Race one fresh attempt against the straggling original. Its
    /// attempt id is offset past the retry budget so fault decisions are
    /// independent of the original's. A speculative failure is recorded
    /// but never fails the wave — the original still owns the slot.
    fn run_speculative(&self, i: usize) {
        let slot = &self.slots[i];
        if slot.speculated.swap(true, Ordering::AcqRel) {
            // Another free runner already raced this slot.
            return;
        }
        self.metrics.record_speculative_launch();
        let attempt =
            self.policy.max_attempts.max(1) + slot.spec_attempts.fetch_add(1, Ordering::AcqRel);
        if self.tracer.enabled() {
            self.tracer.instant_under(
                "speculate",
                format!("part={i} attempt={attempt}"),
                self.span,
                self.root,
            );
        }
        if slot.settled.load(Ordering::Acquire) {
            return;
        }
        match self.execute_attempt(i, attempt, true) {
            Ok(v) => self.settle_value(i, v, true),
            Err(_) => self.metrics.record_task_failure(),
        }
    }

    /// Gather results in partition order, preferring the lowest-index
    /// failure over the empty-slot placeholder.
    fn finish(self: Arc<Self>) -> Result<Vec<T>> {
        if let Some((_, err)) = lock(&self.lowest_failure).take() {
            return Err(err);
        }
        let mut out = Vec::with_capacity(self.parts);
        for slot in &self.slots {
            match lock(&slot.value).take() {
                Some(v) => out.push(v),
                // Unreachable in practice: a slot can only be empty when a
                // failure was recorded, which returns above.
                None => return Err(SjdfError::TaskPanic("task did not complete".into())),
            }
        }
        Ok(out)
    }
}

/// Recover from std mutex poisoning: wave slots hold plain values and the
/// failure bookkeeping is monotonic, so the data is always consistent.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_preserves_partition_order() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap());
        let out = ctx.run_wave(16, |i| i * 2).unwrap();
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_wave_is_ok() {
        let ctx = ExecCtx::local();
        let out: Vec<usize> = ctx.run_wave(0, |i| i).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn serial_fast_path_works() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 1).unwrap());
        let out = ctx.run_wave(5, |i| i + 1).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn panics_are_converted_to_errors() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap());
        let res: Result<Vec<usize>> = ctx.run_wave(8, |i| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
        match res {
            // The real payload must surface — not the generic
            // "task did not complete" placeholder.
            Err(SjdfError::TaskPanic(msg)) => {
                assert!(msg.contains("task 3 exploded"), "got: {msg}")
            }
            other => panic!("expected TaskPanic, got {other:?}"),
        }
    }

    #[test]
    fn lowest_partition_panic_wins() {
        // Every task panics with its own message; partition 0's surfaces
        // whichever thread failed first.
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap());
        let res: Result<Vec<usize>> = ctx.run_wave(8, |i| panic!("task {i} failed"));
        match res {
            Err(SjdfError::TaskPanic(msg)) => assert_eq!(msg, "task 0 failed"),
            other => panic!("expected TaskPanic, got {other:?}"),
        }
    }

    #[test]
    fn nested_waves_do_not_deadlock() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap());
        let inner_ctx = ctx.clone();
        let outer = ctx
            .run_wave(4, move |i| {
                let inner = inner_ctx.run_wave(4, move |j| i * 10 + j).unwrap();
                inner.into_iter().sum::<usize>()
            })
            .unwrap();
        assert_eq!(outer, vec![6, 46, 86, 126]);
    }

    #[test]
    fn deeply_nested_waves_complete() {
        // Three levels of nesting on a 2-thread pool: progress must come
        // from caller-helping, not from free workers.
        let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap());
        let c1 = ctx.clone();
        let sums = ctx
            .run_wave(3, move |i| {
                let c2 = c1.clone();
                c1.run_wave(3, move |j| {
                    let inner = c2.run_wave(3, move |k| i + j + k).unwrap();
                    inner.into_iter().sum::<usize>()
                })
                .unwrap()
                .into_iter()
                .sum::<usize>()
            })
            .unwrap();
        // sum over j,k in 0..3 of (i+j+k) = 9i + 18
        assert_eq!(sums, vec![18, 27, 36]);
    }

    #[test]
    fn pool_is_reused_across_waves() {
        // Each wave parks all its tasks on one barrier, so it must occupy
        // the caller plus `threads - 1` pool workers at once. Over
        // `pool + 1` waves, pools respawned per wave would show more
        // distinct worker ids than one pool has threads; a reused pool
        // never can. (Thread ids are never recycled within a process.)
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap());
        let threads = ctx.cluster.local_threads();
        if threads < 2 {
            return; // single-core host: the caller runs every task
        }
        let pool = ctx.pool.workers();
        let caller = std::thread::current().id();
        let mut workers = std::collections::HashSet::new();
        for _ in 0..=pool {
            let barrier = Arc::new(std::sync::Barrier::new(threads));
            let ids = ctx
                .run_wave(threads, move |_| {
                    barrier.wait();
                    std::thread::current().id()
                })
                .unwrap();
            workers.extend(ids.into_iter().filter(|id| *id != caller));
        }
        assert!(
            workers.len() <= pool,
            "{} distinct workers ran waves on a {pool}-thread pool",
            workers.len()
        );
    }

    #[test]
    fn wave_uses_multiple_threads_when_available() {
        // With 4 local threads and 2 barrier-synced tasks, two distinct
        // thread ids must appear (unless the host is single-core).
        if std::thread::available_parallelism().unwrap().get() < 2 {
            return;
        }
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let ids = ctx
            .run_wave(2, move |_| {
                barrier.wait();
                std::thread::current().id()
            })
            .unwrap();
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn concurrent_waves_share_one_pool() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap());
        let outputs: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let ctx = ctx.clone();
                    s.spawn(move || ctx.run_wave(16, move |i| w * 100 + i).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (w, out) in outputs.into_iter().enumerate() {
            assert_eq!(out, (0..16).map(|i| w * 100 + i).collect::<Vec<_>>());
        }
    }

    // ------------------------------------------------------------------
    // Retry / fault-injection behavior
    // ------------------------------------------------------------------

    #[test]
    fn injected_fault_with_budget_one_is_fail_fast() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap())
            .with_faults(FaultPlan::seeded(0).kill_attempt(1, 0));
        let res: Result<Vec<usize>> = ctx.run_wave(4, |i| i);
        match res {
            Err(SjdfError::TaskPanic(msg)) => assert!(msg.contains(INJECTED), "{msg}"),
            other => panic!("expected TaskPanic, got {other:?}"),
        }
    }

    #[test]
    fn retry_recovers_from_a_transient_fault() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap())
            .with_retry(RetryPolicy::retries(3))
            .with_faults(FaultPlan::seeded(0).kill_attempt(1, 0).kill_attempt(2, 0));
        let out = ctx.run_wave(4, |i| i * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
        let failures = ctx.failure_report();
        assert_eq!(failures.injected_task_faults, 2);
        assert_eq!(failures.task_retries, 2);
        assert_eq!(failures.tasks_exhausted, 0);
        assert!(failures.backoff_secs > 0.0);
    }

    #[test]
    fn retry_recovers_on_a_serial_context_too() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 1).unwrap())
            .with_retry(RetryPolicy::retries(2))
            .with_faults(FaultPlan::seeded(0).kill_attempt(0, 0));
        let out = ctx.run_wave(3, |i| i + 1).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_partition_exhausts_its_budget() {
        let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap())
            .with_retry(RetryPolicy::retries(3))
            .with_faults(FaultPlan::seeded(0).poison_partition(2));
        let res: Result<Vec<usize>> = ctx.run_wave(4, |i| i);
        match res {
            Err(SjdfError::ExhaustedRetries {
                partition,
                attempts,
                last_error,
            }) => {
                assert_eq!(partition, 2);
                assert_eq!(attempts, 3);
                assert!(last_error.contains(INJECTED), "{last_error}");
            }
            other => panic!("expected ExhaustedRetries, got {other:?}"),
        }
        assert_eq!(ctx.failure_report().tasks_exhausted, 1);
    }

    #[test]
    fn genuine_panics_are_retried_under_a_budget() {
        use std::sync::atomic::AtomicUsize;
        let tries = Arc::new(AtomicUsize::new(0));
        let ctx = ExecCtx::new(ClusterSpec::new(1, 1).unwrap()).with_retry(RetryPolicy::retries(3));
        let t = Arc::clone(&tries);
        let out = ctx
            .run_wave(1, move |i| {
                if t.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky once");
                }
                i + 7
            })
            .unwrap();
        assert_eq!(out, vec![7]);
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::retries(8).with_backoff(
            Duration::from_millis(10),
            2.0,
            Duration::from_millis(35),
        );
        assert_eq!(p.backoff_for(0), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2), Duration::from_millis(35)); // capped
        assert_eq!(p.backoff_for(10), Duration::from_millis(35));
    }

    #[test]
    fn speculation_rescues_an_injected_straggler() {
        let spec = SpeculationPolicy {
            multiplier: 3.0,
            min_runtime: Duration::from_millis(30),
            check_interval: Duration::from_millis(2),
        };
        // Partition 0 attempt 0 is delayed far past the median; the
        // speculative attempt (id >= max_attempts) is not delayed.
        let ctx = ExecCtx::new(ClusterSpec::new(1, 4).unwrap())
            .with_retry(RetryPolicy::retries(1).with_speculation(spec))
            .with_faults(
                FaultPlan::seeded(0).with_delays(0.0, Duration::ZERO), // inert rates
            );
        // Build the straggler with a task-side sleep keyed on attempt:
        // the original (attempt 0) sleeps, the speculative copy does not.
        let out = ctx
            .run_wave(8, |i| {
                if i == 0 && current_attempt() == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                i * 3
            })
            .unwrap();
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
        let failures = ctx.failure_report();
        assert!(failures.speculative_launched >= 1, "{failures:?}");
        assert_eq!(failures.speculative_wins, failures.speculative_launched);
    }

    #[test]
    fn current_attempt_is_zero_outside_tasks() {
        assert_eq!(current_attempt(), 0);
    }
}
