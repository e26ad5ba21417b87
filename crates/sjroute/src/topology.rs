//! The router's view of the worker fleet.
//!
//! Each worker is a [`WorkerState`]: address, health flag, consecutive
//! failure count, last-seen catalog epoch, and the shard manifest it
//! reported over the `catalog` verb. From those manifests the topology
//! maintains **planning catalogs** — every dataset registered with its
//! real schema but *zero rows* — which is all the derivation search
//! needs: solving is schema-level, so the router can compute the exact
//! plan a worker would, without holding a byte of data.
//!
//! Two planning views coexist. The *combined* catalog (union of every
//! manifest) answers "is this query solvable by the fleet at all?" and
//! fixes the **reference plan** — the derivation a single process over
//! the whole catalog would execute. A *per-worker* catalog answers
//! "does worker W derive this query with that same plan from what it
//! alone holds?" — the routability test ([`Topology::local_solvers`]).
//! Merely holding every dataset in the reference plan's cover is not
//! enough: the worker executes whatever *its own* solver picks, and a
//! shard's extra or missing datasets can steer the greedy search to a
//! different derivation (e.g. a looser join) whose rows disagree with
//! single-process execution. Plan-fingerprint equality is exactly
//! "same bytes as single-process".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use sjcore::catalog::Catalog;
use sjcore::engine::{EngineConfig, Query, QueryEngine};
use sjcore::{Schema, SjDataset};
use sjdf::ExecCtx;
use sjserve::metrics::WorkerSummary;
use sjserve::protocol::{CatalogInfo, DatasetDesc};

use crate::ring::Ring;

/// Mutable manifest a worker last reported.
#[derive(Debug, Clone, Default)]
pub struct WorkerInfo {
    pub shard_id: Option<String>,
    pub datasets: Vec<DatasetDesc>,
}

/// One worker as the router tracks it.
#[derive(Debug)]
pub struct WorkerState {
    pub addr: String,
    healthy: AtomicBool,
    consecutive_failures: AtomicU64,
    catalog_epoch: AtomicU64,
    info: Mutex<WorkerInfo>,
}

impl WorkerState {
    fn new(addr: String) -> Self {
        WorkerState {
            addr,
            healthy: AtomicBool::new(false),
            consecutive_failures: AtomicU64::new(0),
            catalog_epoch: AtomicU64::new(0),
            info: Mutex::new(WorkerInfo::default()),
        }
    }

    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    pub fn epoch(&self) -> u64 {
        self.catalog_epoch.load(Ordering::Relaxed)
    }

    pub fn failures(&self) -> u64 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    pub fn dataset_names(&self) -> Vec<String> {
        self.info
            .lock()
            .datasets
            .iter()
            .map(|d| d.name.clone())
            .collect()
    }

    pub fn summary(&self) -> WorkerSummary {
        let info = self.info.lock();
        WorkerSummary {
            addr: self.addr.clone(),
            shard_id: info.shard_id.clone(),
            healthy: self.healthy(),
            catalog_epoch: self.epoch(),
            datasets: info.datasets.iter().map(|d| d.name.clone()).collect(),
            consecutive_failures: self.failures(),
        }
    }
}

/// The schema-level planning state derived from every worker manifest.
pub struct Planning {
    /// Zero-row catalog over the union of every worker's datasets.
    pub catalog: Catalog,
    /// Dataset name → worker indices holding it, primary-first in ring
    /// preference order (so `[0]` is where the partitioner put the
    /// primary copy and the rest are failover replicas).
    pub owners: BTreeMap<String, Vec<usize>>,
    /// One zero-row catalog per worker (same index as
    /// [`Topology::workers`]), holding only that worker's datasets —
    /// the routability oracle: a worker can serve a (sub-)query iff its
    /// own catalog solves it.
    pub per_worker: Vec<Catalog>,
}

/// The fleet: worker states plus the planning catalog rebuilt from them.
pub struct Topology {
    pub workers: Vec<Arc<WorkerState>>,
    ring: Ring,
    planning: RwLock<Planning>,
}

impl Topology {
    pub fn new(addrs: Vec<String>) -> Self {
        let ring = Ring::new(addrs.len());
        Topology {
            workers: addrs
                .into_iter()
                .map(|a| Arc::new(WorkerState::new(a)))
                .collect(),
            ring,
            planning: RwLock::new(Planning {
                catalog: Catalog::default_hpc(),
                owners: BTreeMap::new(),
                per_worker: Vec::new(),
            }),
        }
    }

    /// Read access to the planning catalog and ownership map.
    pub fn planning(&self) -> RwLockReadGuard<'_, Planning> {
        self.planning.read()
    }

    /// Install a worker's freshly fetched manifest, mark it healthy, and
    /// rebuild the planning state. Returns errors for datasets whose
    /// schemas failed to register (the rest still plan).
    pub fn refresh(&self, idx: usize, info: CatalogInfo, ctx: &ExecCtx) -> Vec<String> {
        {
            let worker = &self.workers[idx];
            worker.catalog_epoch.store(info.epoch, Ordering::Relaxed);
            *worker.info.lock() = WorkerInfo {
                shard_id: info.shard_id,
                datasets: info.datasets,
            };
            worker.consecutive_failures.store(0, Ordering::Relaxed);
            worker.healthy.store(true, Ordering::Release);
        }
        self.rebuild(ctx)
    }

    /// Rebuild the planning catalog and owners map from every worker's
    /// last-known manifest (down workers included: their datasets remain
    /// plannable, and liveness is checked at routing time).
    pub fn rebuild(&self, ctx: &ExecCtx) -> Vec<String> {
        let mut errors = Vec::new();
        let mut schema_jsons: BTreeMap<String, String> = BTreeMap::new();
        let mut holders: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut manifests: Vec<Vec<String>> = Vec::with_capacity(self.workers.len());
        for (idx, worker) in self.workers.iter().enumerate() {
            let mut names = Vec::new();
            for ds in &worker.info.lock().datasets {
                schema_jsons
                    .entry(ds.name.clone())
                    .or_insert_with(|| ds.schema_json.clone());
                holders.entry(ds.name.clone()).or_default().push(idx);
                names.push(ds.name.clone());
            }
            manifests.push(names);
        }
        let mut schemas: BTreeMap<String, Schema> = BTreeMap::new();
        for (name, schema_json) in &schema_jsons {
            match serde_json::from_str::<Schema>(schema_json) {
                Ok(s) => {
                    schemas.insert(name.clone(), s);
                }
                Err(e) => errors.push(format!("dataset `{name}`: bad schema: {e}")),
            }
        }
        let mut catalog = Catalog::default_hpc();
        for (name, schema) in &schemas {
            let ds = SjDataset::from_rows(ctx, Vec::new(), schema.clone(), name.as_str(), 1);
            if let Err(e) = catalog.register_dataset(name, ds) {
                errors.push(format!("dataset `{name}`: {e}"));
            }
        }
        // Per-worker catalogs: registration errors were already reported
        // on the combined build, so failures here stay silent.
        let per_worker: Vec<Catalog> = manifests
            .iter()
            .map(|names| {
                let mut local = Catalog::default_hpc();
                for name in names {
                    if let Some(schema) = schemas.get(name) {
                        let ds =
                            SjDataset::from_rows(ctx, Vec::new(), schema.clone(), name.as_str(), 1);
                        let _ = local.register_dataset(name, ds);
                    }
                }
                local
            })
            .collect();
        // Order each dataset's holders by ring preference so the primary
        // (the shard the partitioner chose) is tried first and replicas
        // follow in failover order.
        let mut owners = BTreeMap::new();
        for (name, mut workers) in holders {
            let pref = self.ring.preference(&name);
            workers.sort_by_key(|w| pref.iter().position(|p| p == w).unwrap_or(usize::MAX));
            owners.insert(name, workers);
        }
        *self.planning.write() = Planning {
            catalog,
            owners,
            per_worker,
        };
        errors
    }

    /// Workers holding **every** dataset in `cover`, ordered by ring
    /// preference on the joined cover (deterministic spread across
    /// equally capable holders). `live_only` filters to healthy workers.
    pub fn holders(&self, cover: &[&str], live_only: bool) -> Vec<usize> {
        let planning = self.planning.read();
        let mut candidates: Option<Vec<usize>> = None;
        for name in cover {
            let holder_set = planning.owners.get(*name).cloned().unwrap_or_default();
            candidates = Some(match candidates {
                None => holder_set,
                Some(prev) => prev
                    .into_iter()
                    .filter(|w| holder_set.contains(w))
                    .collect(),
            });
        }
        drop(planning);
        let mut result: Vec<usize> = candidates
            .unwrap_or_default()
            .into_iter()
            .filter(|&w| !live_only || self.workers[w].healthy())
            .collect();
        let mut key = cover.to_vec();
        key.sort_unstable();
        let pref = self.ring.preference(&key.join(","));
        result.sort_by_key(|w| pref.iter().position(|p| p == w).unwrap_or(usize::MAX));
        result
    }

    /// Workers whose **own** catalogs derive `query` with the reference
    /// plan — schema-level derivation search on each per-worker planning
    /// catalog, accepted only when the local plan's fingerprint equals
    /// `reference` (the combined-catalog plan's). Local solvability
    /// alone is not enough: a worker missing a linking dataset can
    /// still "solve" the query with a *different* derivation (e.g. a
    /// looser join) whose result disagrees with single-process
    /// execution, and the router promises byte-identical answers.
    /// Returns `(live, all)`: healthy matches and every match
    /// regardless of health, both ordered by ring preference on `key`
    /// (a deterministic spread across equally capable workers).
    pub fn local_solvers(
        &self,
        query: &Query,
        config: &EngineConfig,
        reference: u64,
        key: &str,
    ) -> (Vec<usize>, Vec<usize>) {
        let planning = self.planning.read();
        let mut all: Vec<usize> = (0..self.workers.len())
            .filter(|&idx| {
                planning.per_worker.get(idx).is_some_and(|catalog| {
                    QueryEngine::with_config(catalog, config.clone())
                        .solve(query)
                        .is_ok_and(|plan| plan.fingerprint() == reference)
                })
            })
            .collect();
        drop(planning);
        let pref = self.ring.preference(key);
        all.sort_by_key(|w| pref.iter().position(|p| p == w).unwrap_or(usize::MAX));
        let live = all
            .iter()
            .copied()
            .filter(|&w| self.workers[w].healthy())
            .collect();
        (live, all)
    }

    /// Union of every worker's dataset names, sorted.
    pub fn all_datasets(&self) -> Vec<String> {
        self.planning.read().owners.keys().cloned().collect()
    }

    /// Union of every worker's dataset descriptions (first reporter's
    /// schema wins), sorted by name — the router's combined `catalog`
    /// payload.
    pub fn combined_datasets(&self) -> Vec<DatasetDesc> {
        let mut seen: BTreeMap<String, DatasetDesc> = BTreeMap::new();
        for worker in &self.workers {
            for ds in &worker.info.lock().datasets {
                seen.entry(ds.name.clone()).or_insert_with(|| ds.clone());
            }
        }
        seen.into_values().collect()
    }

    /// Count one failed probe or call against a worker; marks it down
    /// once `markdown_after` consecutive failures accumulate. Returns
    /// `true` exactly when this failure transitioned the worker to down.
    pub fn record_failure(&self, idx: usize, markdown_after: u64) -> bool {
        let worker = &self.workers[idx];
        let failures = worker.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= markdown_after && worker.healthy.swap(false, Ordering::AcqRel) {
            return true;
        }
        false
    }

    /// Reset a worker's failure streak after a successful call. Does not
    /// mark a down worker back up — that requires a fresh manifest (see
    /// [`Topology::refresh`]), because its catalog may have changed while
    /// it was away.
    pub fn record_success(&self, idx: usize) {
        self.workers[idx]
            .consecutive_failures
            .store(0, Ordering::Relaxed);
    }

    /// Fleet-wide epoch: a fingerprint over every worker's `(addr,
    /// epoch)`, so any shard reload changes the combined value.
    pub fn combined_epoch(&self) -> u64 {
        let mut h = crate::ring::fnv1a(b"fleet");
        for worker in &self.workers {
            h ^= crate::ring::fnv1a(worker.addr.as_bytes()) ^ worker.epoch().rotate_left(17);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    pub fn summaries(&self) -> Vec<WorkerSummary> {
        self.workers.iter().map(|w| w.summary()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcore::{FieldDef, FieldSemantics};

    fn ctx() -> ExecCtx {
        ExecCtx::local()
    }

    fn desc(name: &str, dims: &[(&str, &str, &str)]) -> DatasetDesc {
        let schema = Schema::new(
            dims.iter()
                .map(|(field, dim, units)| FieldDef::new(field, FieldSemantics::domain(dim, units)))
                .collect(),
        )
        .unwrap();
        DatasetDesc {
            name: name.into(),
            schema_json: serde_json::to_string(&schema).unwrap(),
        }
    }

    fn info(shard: &str, epoch: u64, datasets: Vec<DatasetDesc>) -> CatalogInfo {
        CatalogInfo {
            shard_id: Some(shard.into()),
            epoch,
            datasets,
        }
    }

    #[test]
    fn refresh_builds_planning_catalog_and_owners() {
        let ctx = ctx();
        let topo = Topology::new(vec!["a:1".into(), "b:2".into()]);
        let errs = topo.refresh(
            0,
            info("w0", 7, vec![desc("left", &[("job", "job", "job-id")])]),
            &ctx,
        );
        assert!(errs.is_empty(), "{errs:?}");
        topo.refresh(
            1,
            info("w1", 9, vec![desc("right", &[("rack", "rack", "rack-id")])]),
            &ctx,
        );
        let planning = topo.planning();
        assert_eq!(
            planning.catalog.dataset_names().len(),
            2,
            "{:?}",
            planning.catalog.dataset_names()
        );
        assert_eq!(planning.owners.get("left"), Some(&vec![0]));
        assert_eq!(planning.owners.get("right"), Some(&vec![1]));
        drop(planning);
        assert!(topo.workers[0].healthy());
        assert_eq!(topo.workers[0].epoch(), 7);
        assert_eq!(topo.all_datasets(), vec!["left", "right"]);
    }

    #[test]
    fn holders_require_full_cover_and_liveness() {
        let ctx = ctx();
        let topo = Topology::new(vec!["a:1".into(), "b:2".into()]);
        topo.refresh(
            0,
            info(
                "w0",
                1,
                vec![
                    desc("x", &[("j", "job", "job-id")]),
                    desc("y", &[("r", "rack", "rack-id")]),
                ],
            ),
            &ctx,
        );
        topo.refresh(
            1,
            info("w1", 1, vec![desc("x", &[("j", "job", "job-id")])]),
            &ctx,
        );
        assert_eq!(topo.holders(&["x", "y"], true), vec![0]);
        let both = topo.holders(&["x"], true);
        assert_eq!(both.len(), 2);
        // Mark worker 0 down: it leaves live holder sets.
        assert!(!topo.record_failure(0, 2));
        assert!(
            topo.record_failure(0, 2),
            "second failure crosses threshold"
        );
        assert!(
            !topo.record_failure(0, 2),
            "already down: no new transition"
        );
        assert!(topo.holders(&["x", "y"], true).is_empty());
        assert_eq!(topo.holders(&["x", "y"], false), vec![0]);
        assert_eq!(topo.holders(&["x"], true), vec![1]);
        // Nonexistent dataset: nobody holds it.
        assert!(topo.holders(&["zz"], false).is_empty());
    }

    #[test]
    fn local_solvers_consult_each_workers_own_catalog() {
        let ctx = ctx();
        let measurement = |name: &str, value_dim: &str, units: &str| DatasetDesc {
            name: name.into(),
            schema_json: serde_json::to_string(
                &Schema::new(vec![
                    FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
                    FieldDef::new("v", FieldSemantics::value(value_dim, units)),
                ])
                .unwrap(),
            )
            .unwrap(),
        };
        let topo = Topology::new(vec!["a:1".into(), "b:2".into()]);
        topo.refresh(
            0,
            info("w0", 1, vec![measurement("node_power", "power", "watts")]),
            &ctx,
        );
        topo.refresh(
            1,
            info(
                "w1",
                1,
                vec![measurement("node_temp", "temperature", "celsius")],
            ),
            &ctx,
        );
        let q = |values: &[&str]| Query {
            domains: vec!["compute-node".into()],
            values: values
                .iter()
                .map(|v| sjcore::engine::QueryValue {
                    dimension: (*v).into(),
                    units: None,
                })
                .collect(),
        };
        let cfg = EngineConfig::default();
        // Reference plans come from the combined catalog, the way the
        // router computes them.
        let reference = |query: &Query| {
            let planning = topo.planning();
            QueryEngine::with_config(&planning.catalog, cfg.clone())
                .solve(query)
                .unwrap()
                .fingerprint()
        };
        // Power is derivable only on worker 0, temperature only on 1.
        let power = q(&["power"]);
        let temp = q(&["temperature"]);
        assert_eq!(
            topo.local_solvers(&power, &cfg, reference(&power), "k").1,
            vec![0]
        );
        assert_eq!(
            topo.local_solvers(&temp, &cfg, reference(&temp), "k").1,
            vec![1]
        );
        // No single worker derives both, even though the fleet can.
        let both = q(&["power", "temperature"]);
        assert!(topo
            .local_solvers(&both, &cfg, reference(&both), "k")
            .1
            .is_empty());
        // A fingerprint nobody's local plan matches yields no solvers,
        // even where plain solvability would say yes.
        assert!(topo
            .local_solvers(&power, &cfg, 0xDEAD_BEEF, "k")
            .1
            .is_empty());
        // Liveness splits live from all.
        topo.record_failure(0, 1);
        let (live, all) = topo.local_solvers(&power, &cfg, reference(&power), "k");
        assert!(live.is_empty());
        assert_eq!(all, vec![0]);
    }

    #[test]
    fn success_resets_failures_but_not_health() {
        let ctx = ctx();
        let topo = Topology::new(vec!["a:1".into()]);
        topo.refresh(0, info("w0", 1, vec![]), &ctx);
        topo.record_failure(0, 3);
        assert_eq!(topo.workers[0].failures(), 1);
        topo.record_success(0);
        assert_eq!(topo.workers[0].failures(), 0);
        assert!(topo.workers[0].healthy());
        // Once down, success alone does not resurrect.
        topo.record_failure(0, 1);
        assert!(!topo.workers[0].healthy());
        topo.record_success(0);
        assert!(!topo.workers[0].healthy());
    }

    #[test]
    fn combined_epoch_tracks_any_worker_change() {
        let ctx = ctx();
        let topo = Topology::new(vec!["a:1".into(), "b:2".into()]);
        topo.refresh(0, info("w0", 1, vec![]), &ctx);
        topo.refresh(1, info("w1", 2, vec![]), &ctx);
        let before = topo.combined_epoch();
        topo.refresh(1, info("w1", 3, vec![]), &ctx);
        assert_ne!(before, topo.combined_epoch());
    }
}
