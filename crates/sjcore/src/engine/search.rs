//! The derivation search (§5.2, Algorithm 1).
//!
//! The engine formulates query satisfaction as a constraint-satisfaction
//! search over *data semantics only*: derivations are first applied to
//! schemas (constant-time per step), never to data, so the search runs at
//! interactive rates. The strategy follows the paper:
//!
//! 1. Find the smallest set `DF` of catalog datasets containing the
//!    queried domain dimensions (plus the datasets providing value
//!    dimensions the query needs, found by backward-chaining through the
//!    registered derivation rules). If a queried domain dimension exists
//!    nowhere, there is no solution — combinations never invent domain
//!    dimensions.
//! 2. Try to combine `DF` (`combine_set`, folding `combine_pair`); on
//!    failure add one more dataset at a time. Shorter sequences are
//!    preferred — interpolation and aggregation lose precision, so fewer
//!    derivations mean higher-precision results.
//! 3. `combine_pair` aligns two schemas (exploding compound domain
//!    columns) and picks the combination their semantics allow: a natural
//!    join when all shared domains are discrete, an interpolation join
//!    when exactly one shared domain is ordered and continuous.
//! 4. `combine_pair` outcomes are memoized on schema fingerprints (both
//!    orientations under one key). `combine_set` itself is not memoized:
//!    at each iteration it receives a superset of its previous
//!    arguments, so it re-folds, and most of its pair tests hit the memo.
//!
//! **The fold's tie-break.** `combine_set` folds left-deep: starting
//! from `DF[0]`, the accumulator takes the first remaining dataset it
//! combines with. That fold is the default, and if it fails there is no
//! fold, so widening never depends on the tie-break. A fold's *score*
//! counts its interpolation joins whose inputs share no identifier (a
//! non-interpolatable domain dimension) that the query asks for. When
//! the default scores above 0 and `|DF| ≥ 3`, the bushy fold
//! `DF[0] ⋈ fold(DF[1..])` is tried too, and taken only if it scores
//! strictly lower and answers the query exactly when the default does.
//! Ties keep the left-deep plan. `DF[0]` stays the left input because an
//! interpolation join emits one row per matched left element. On the
//! paper's Figure 5 this turns `(heat ⋈ layout) ⋈ᵢ jobs`, anchored on
//! `compute-node`, into `heat ⋈ᵢ (jobs ⋈ layout)`, anchored on the
//! queried `rack`: the same answer without copying every heat row to
//! each node of its rack.
//!
//! Combinations are *anchored* when at least one shared domain is an
//! identifier (two measurements relate through a shared resource, not
//! merely a shared instant). The search prefers anchored combinations and
//! only falls back to time-only joins when no anchored path exists — this
//! is what pulls the node-layout dataset into the paper's Figure 5 plan.
//!
//! [`QueryEngine::solve`] runs this search on the slice of the catalog
//! the query can reach (see `planner.rs`);
//! [`QueryEngine::solve_reference`] runs it over the whole catalog and
//! is kept only as the parity oracle.

use crate::catalog::Catalog;
use crate::derivations::combine::SharedDomains;
use crate::derivations::DerivationSpec;
use crate::engine::{Plan, Query};
use crate::error::{Result, SjError};
use crate::schema::Schema;
use crate::units::UnitKind;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};

/// Tuning knobs for the search and the plans it emits.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Step used when exploding time spans into instants (seconds).
    pub explode_step_secs: f64,
    /// Window `W` for interpolation joins (seconds).
    pub interp_window_secs: f64,
    /// Memoize `combine_pair` outcomes (§5.2). Disable only for ablation
    /// studies.
    pub memoize: bool,
    /// Allow combinations whose only shared domain is ordered/continuous
    /// (e.g. time-only joins) when no anchored plan exists.
    pub allow_unanchored: bool,
    /// Hard cap on candidate datasets considered in one query. When the
    /// cap stops a search that still had untried datasets, `solve()`
    /// returns [`SjError::SearchTruncated`] instead of
    /// [`SjError::NoSolution`].
    pub max_datasets: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            explode_step_secs: 60.0,
            interp_window_secs: 120.0,
            memoize: true,
            allow_unanchored: true,
            max_datasets: 32,
        }
    }
}

/// Counters describing search effort, accumulated across every
/// `solve()` on the engine (all fields are cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `combine_pair` invocations that ran the full alignment logic.
    pub pair_tests: u64,
    /// `combine_pair` invocations answered from the memo (including
    /// mirrored hits: a `(right, left)` test answered from the
    /// `(left, right)` entry).
    pub memo_hits: u64,
    /// Derivation rules applied during saturation.
    pub rules_applied: u64,
    /// Candidate datasets considered (saturated and examined). `solve`
    /// only counts datasets reachable from the query, so this stays far
    /// below catalog size on large catalogs.
    pub datasets_considered: usize,
}

/// One candidate in the search: a plan and the schema it would produce.
#[derive(Debug, Clone)]
pub(super) struct Cand {
    pub(super) plan: Plan,
    pub(super) schema: Schema,
}

/// Memoized outcome of a `combine_pair` test (schemas only — plans are
/// reattached by the caller). The post-alignment schemas are kept so a
/// mirrored lookup can re-derive the combined column order without
/// re-running the alignment logic.
#[derive(Debug, Clone)]
struct PairOutcome {
    left_steps: Vec<DerivationSpec>,
    right_steps: Vec<DerivationSpec>,
    combine: DerivationSpec,
    left_aligned: Schema,
    right_aligned: Schema,
    schema: Schema,
}

/// Memo slot under one canonical `(lo_fp, hi_fp, anchored)` key:
/// outcomes for both orientations of the pair. Combinability is
/// symmetric, so either orientation's result answers the other — only
/// the combined column order differs, which `flip_outcome` re-derives
/// from the stored aligned schemas.
#[derive(Debug, Clone, Default)]
struct PairEntry {
    /// Index 0: the `(lo, hi)` orientation; index 1: `(hi, lo)`.
    by_dir: [Option<Option<PairOutcome>>; 2],
}

/// The derivation engine: answers queries with reproducible plans.
pub struct QueryEngine<'c> {
    catalog: &'c Catalog,
    config: EngineConfig,
    pair_memo: Mutex<HashMap<(u64, u64, bool), PairEntry>>,
    stats: Mutex<EngineStats>,
    /// Inverted dimension indexes over the catalog's raw schemas, built
    /// on the first solve and shared by every subsequent query (the
    /// catalog is borrowed immutably, so the index can never go stale).
    pub(super) index: std::sync::OnceLock<super::planner::CatalogIndex>,
}

impl<'c> QueryEngine<'c> {
    /// Engine over a catalog with default configuration.
    pub fn new(catalog: &'c Catalog) -> Self {
        QueryEngine::with_config(catalog, EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(catalog: &'c Catalog, config: EngineConfig) -> Self {
        QueryEngine {
            catalog,
            config,
            pair_memo: Mutex::new(HashMap::new()),
            stats: Mutex::new(EngineStats::default()),
            index: std::sync::OnceLock::new(),
        }
    }

    /// Search effort counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The catalog this engine plans against.
    pub(super) fn catalog(&self) -> &'c Catalog {
        self.catalog
    }

    /// Apply a mutation under the stats lock (one acquisition).
    pub(super) fn bump_stats(&self, f: impl FnOnce(&mut EngineStats)) {
        f(&mut self.stats.lock());
    }

    /// Find a derivation sequence satisfying `query`, or fail with
    /// [`SjError::NoSolution`] (provably unsatisfiable) or
    /// [`SjError::SearchTruncated`] (dataset budget hit first).
    pub fn solve(&self, query: &Query) -> Result<Plan> {
        let query = query.canonicalize(self.catalog.dict())?;
        super::planner::solve(self, &query)
    }

    /// Feasibility screen over *raw* schemas: queried domain
    /// dimensions must exist somewhere (combinations never invent domain
    /// dimensions — and no registered rule yields one either), and
    /// queried value dimensions must be recorded or claimed by a rule.
    fn check_feasibility(&self, query: &Query) -> Result<()> {
        if self.catalog.datasets().next().is_none() {
            return Err(SjError::NoSolution("catalog is empty".into()));
        }
        for d in &query.domains {
            if !self
                .catalog
                .datasets()
                .any(|(_, ds)| ds.schema().domain_field_on(d).is_some())
            {
                return Err(SjError::NoSolution(format!(
                    "domain dimension `{d}` exists in no dataset \
                     (combinations cannot infer new domain dimensions)"
                )));
            }
        }
        for v in &query.values {
            let present = self
                .catalog
                .datasets()
                .any(|(_, ds)| ds.schema().value_field_on(&v.dimension).is_some());
            let derivable = self
                .catalog
                .rules()
                .iter()
                .any(|r| r.yields.contains(&v.dimension));
            if !present && !derivable {
                return Err(SjError::NoSolution(format!(
                    "value dimension `{}` is neither recorded nor derivable",
                    v.dimension
                )));
            }
        }
        Ok(())
    }

    /// The reference §5.2 search: saturate every catalog dataset, seed
    /// with the greedy cover, widen in the fixed addition order.
    ///
    /// This is the parity oracle for [`solve`](QueryEngine::solve),
    /// which must return the same plan or the same error on every
    /// catalog. It costs O(catalog) per query, so no config, flag or
    /// daemon reaches it; only the parity tests and the planner bench
    /// call it.
    pub fn solve_reference(&self, query: &Query) -> Result<Plan> {
        let query = &query.canonicalize(self.catalog.dict())?;
        let dict = self.catalog.dict();
        self.check_feasibility(query)?;

        // Backward-chain through the rules to find every value dimension
        // the query (transitively) needs.
        let needed = self.needed_closure(query);

        // Initial candidates: each dataset, saturated with the rules that
        // yield needed dimensions.
        let mut candidates: Vec<Cand> = Vec::new();
        for (name, ds) in self.catalog.datasets() {
            let cand = self.saturate(
                Cand {
                    plan: Plan::load(name),
                    schema: ds.schema().clone(),
                },
                &needed,
            );
            candidates.push(cand);
        }
        self.stats.lock().datasets_considered += candidates.len();

        // A single candidate may already satisfy the query.
        for c in &candidates {
            if query.satisfied_by(&c.schema, dict) {
                return Ok(self.finalize(c.clone(), query));
            }
        }

        // Algorithm 1: seed with the minimal cover, then grow.
        let targets = self.coverage_targets(query, &candidates);
        let all: Vec<usize> = (0..candidates.len()).collect();
        let schema_of = |i: usize| candidates[i].schema.clone();
        let seed = greedy_cover(&schema_of, &targets, &all);
        let order = addition_order(&schema_of, &seed, &all);

        let mut truncated = false;
        for anchored_only in [true, false] {
            if !anchored_only && !self.config.allow_unanchored {
                break;
            }
            let mut df: Vec<usize> = seed.clone();
            loop {
                let get = |i: usize| candidates[i].clone();
                if let Some(result) = self.combine_set(&get, &df, &needed, anchored_only, query) {
                    if query.satisfied_by(&result.schema, dict) {
                        return Ok(self.finalize(result, query));
                    }
                }
                // Add one more dataset (Algorithm 1's widening step).
                let next = order.iter().find(|i| !df.contains(i));
                match next {
                    Some(&next) if df.len() < self.config.max_datasets => df.push(next),
                    // Datasets remained untried: the budget, not the
                    // search space, ended this pass.
                    Some(_) => {
                        truncated = true;
                        break;
                    }
                    None => break,
                }
            }
        }
        if truncated {
            Err(SjError::SearchTruncated {
                query: query.describe(),
                max_datasets: self.config.max_datasets,
            })
        } else {
            Err(SjError::NoSolution(query.describe()))
        }
    }

    /// Value dimensions transitively required: the queried value dims plus
    /// the inputs of every rule that can produce a needed dim.
    pub(super) fn needed_closure(&self, query: &Query) -> BTreeSet<String> {
        let mut needed: BTreeSet<String> =
            query.values.iter().map(|v| v.dimension.clone()).collect();
        loop {
            let before = needed.len();
            for rule in self.catalog.rules() {
                if rule.yields.iter().any(|y| needed.contains(y)) {
                    needed.extend(rule.needs.iter().cloned());
                }
            }
            if needed.len() == before {
                break;
            }
        }
        needed
    }

    /// Dimensions the seed set must cover: queried domains plus needed
    /// value dimensions that exist as recorded values somewhere.
    fn coverage_targets(&self, query: &Query, candidates: &[Cand]) -> Vec<(String, bool)> {
        let mut targets: Vec<(String, bool)> =
            query.domains.iter().map(|d| (d.clone(), true)).collect();
        for dim in self.needed_closure(query) {
            if candidates
                .iter()
                .any(|c| c.schema.value_field_on(&dim).is_some())
            {
                targets.push((dim, false));
            }
        }
        targets
    }

    /// Fold the candidates `df` (fetched through `get`) into one
    /// combined candidate — the one fold both searches share. The
    /// left-deep greedy fold rooted at `df[0]` is the default; if it
    /// fails there is no fold. The tie-break in the module doc may swap
    /// it for the bushy fold `df[0] ⋈ fold(df[1..])`.
    pub(super) fn combine_set(
        &self,
        get: &dyn Fn(usize) -> Cand,
        df: &[usize],
        needed: &BTreeSet<String>,
        anchored_only: bool,
        query: &Query,
    ) -> Option<Cand> {
        self.scored_fold(get, df, needed, anchored_only, query)
            .map(|(cand, _)| cand)
    }

    /// [`combine_set`](Self::combine_set) plus the fold's score: how
    /// many of its interpolation joins are off the query's identifiers.
    fn scored_fold(
        &self,
        get: &dyn Fn(usize) -> Cand,
        df: &[usize],
        needed: &BTreeSet<String>,
        anchored_only: bool,
        query: &Query,
    ) -> Option<(Cand, usize)> {
        let (&root, rest) = df.split_first()?;
        let mut remaining = rest.to_vec();
        let mut acc = get(root);
        let mut score = 0;
        while !remaining.is_empty() {
            let (pos, next, off) = remaining.iter().enumerate().find_map(|(pos, &idx)| {
                let right = get(idx);
                let next = self.combine_pair(&acc, &right, anchored_only)?;
                let off = self.off_query_interp(&acc, &right, &next, query);
                Some((pos, next, off))
            })?;
            remaining.remove(pos);
            score += off;
            acc = self.saturate(next, needed);
        }
        if score == 0 || df.len() < 3 {
            return Some((acc, score));
        }
        // The bushy alternative keeps `df[0]` as the left input: an
        // interpolation join emits one row per matched left element, so
        // the root's rows stay the answer's rows.
        let bushy = self
            .scored_fold(get, rest, needed, anchored_only, query)
            .and_then(|(tail, tail_score)| {
                let head = get(root);
                let top = self.combine_pair(&head, &tail, anchored_only)?;
                let off = self.off_query_interp(&head, &tail, &top, query);
                Some((self.saturate(top, needed), tail_score + off))
            });
        let dict = self.catalog.dict();
        let answers = |c: &Cand| query.satisfied_by(&c.schema, dict);
        match bushy {
            Some((alt, alt_score)) if alt_score < score && answers(&alt) == answers(&acc) => {
                Some((alt, alt_score))
            }
            _ => Some((acc, score)),
        }
    }

    /// 1 if `combined` (of `left` and `right`) is an interpolation join
    /// whose inputs share no identifier the query asks for, else 0. An
    /// identifier is a non-interpolatable domain dimension; alignment
    /// only explodes columns, so the inputs' raw schemas share the same
    /// dimensions as the aligned ones.
    fn off_query_interp(&self, left: &Cand, right: &Cand, combined: &Cand, query: &Query) -> usize {
        let Plan::Combine {
            spec: DerivationSpec::InterpolationJoin { .. },
            ..
        } = &combined.plan
        else {
            return 0;
        };
        let dict = self.catalog.dict();
        let anchored = left
            .schema
            .shared_domain_dimensions(&right.schema)
            .iter()
            .any(|d| {
                query.domains.contains(d)
                    && dict.dimension(d).is_ok_and(|dim| !dim.interpolatable())
            });
        usize::from(!anchored)
    }

    /// Test whether two candidates can be combined (via a short sequence
    /// of alignment transformations and a single combination), and build
    /// the resulting candidate if so.
    ///
    /// Pair tests are memoized under a canonical `(lo_fp, hi_fp)` key
    /// with a direction bit, so a `(right, left)` test hits the entry a
    /// `(left, right)` test populated: combinability is symmetric, and a
    /// successful mirrored outcome only needs its combined column order
    /// re-derived from the stored aligned schemas.
    fn combine_pair(&self, left: &Cand, right: &Cand, anchored_only: bool) -> Option<Cand> {
        let (lf, rf) = (left.schema.fingerprint(), right.schema.fingerprint());
        let dir = usize::from(lf > rf);
        let key = (lf.min(rf), lf.max(rf), anchored_only);
        let (outcome, memo_hit) = 'memo: {
            if self.config.memoize {
                let mut memo = self.pair_memo.lock();
                if let Some(entry) = memo.get_mut(&key) {
                    if let Some(hit) = entry.by_dir[dir].clone() {
                        break 'memo (hit, true);
                    }
                    if let Some(mirror) = entry.by_dir[1 - dir].clone() {
                        // The mirrored orientation was tested. Failure
                        // transfers as-is; success transfers by swapping
                        // sides and re-deriving only the combined schema.
                        let flipped = mirror.and_then(|o| self.flip_outcome(&o));
                        entry.by_dir[dir] = Some(flipped.clone());
                        break 'memo (flipped, true);
                    }
                }
                drop(memo);
            }
            let outcome = self.pair_outcome(&left.schema, &right.schema, anchored_only);
            if self.config.memoize {
                self.pair_memo.lock().entry(key).or_default().by_dir[dir] = Some(outcome.clone());
            }
            (outcome, false)
        };
        // Single stats-lock acquisition per pair test, hit or miss.
        let mut stats = self.stats.lock();
        if memo_hit {
            stats.memo_hits += 1;
        } else {
            stats.pair_tests += 1;
        }
        drop(stats);
        outcome.map(|o| attach_outcome(left, right, &o))
    }

    /// Reverse a memoized pair outcome: swap the per-side alignment
    /// steps and re-derive the combined schema with the sides exchanged
    /// (column order is the only asymmetry in a combination).
    fn flip_outcome(&self, o: &PairOutcome) -> Option<PairOutcome> {
        let schema = o
            .combine
            .as_combination()?
            .derive_schema(&o.right_aligned, &o.left_aligned, self.catalog.dict())
            .ok()?;
        Some(PairOutcome {
            left_steps: o.right_steps.clone(),
            right_steps: o.left_steps.clone(),
            combine: o.combine.clone(),
            left_aligned: o.right_aligned.clone(),
            right_aligned: o.left_aligned.clone(),
            schema,
        })
    }

    /// The semantics-only pair test: alignment steps + combination choice.
    fn pair_outcome(
        &self,
        left: &Schema,
        right: &Schema,
        anchored_only: bool,
    ) -> Option<PairOutcome> {
        let dict = self.catalog.dict();
        // Alignment: explode compound (list/span) columns on shared domain
        // dimensions so elements become comparable.
        let mut lschema = left.clone();
        let mut rschema = right.clone();
        let mut left_steps = Vec::new();
        let mut right_steps = Vec::new();
        let shared_dims = lschema.shared_domain_dimensions(&rschema);
        if shared_dims.is_empty() {
            return None;
        }
        for dim in &shared_dims {
            for (schema, steps) in [
                (&mut lschema, &mut left_steps),
                (&mut rschema, &mut right_steps),
            ] {
                while let Some(field) = schema.domain_field_on(dim) {
                    let units = dict.units(&field.semantics.units).ok()?;
                    let spec = match &units.kind {
                        UnitKind::ListOf { .. } => DerivationSpec::ExplodeDiscrete {
                            column: field.name.clone(),
                        },
                        UnitKind::TimeSpanKind => DerivationSpec::ExplodeContinuous {
                            column: field.name.clone(),
                            step_secs: self.config.explode_step_secs,
                        },
                        _ => break,
                    };
                    let t = spec.as_transformation()?;
                    *schema = t.derive_schema(schema, dict).ok()?;
                    steps.push(spec);
                }
            }
        }

        // Classify shared domains and choose the combination.
        let shared = SharedDomains::analyze(&lschema, &rschema, dict).ok()?;
        let anchored = !shared.exact.is_empty();
        if anchored_only && !anchored {
            return None;
        }
        let combine = match shared.continuous.len() {
            0 => DerivationSpec::NaturalJoin,
            1 => DerivationSpec::InterpolationJoin {
                window_secs: self.config.interp_window_secs,
            },
            _ => return None,
        };
        let schema = combine
            .as_combination()?
            .derive_schema(&lschema, &rschema, dict)
            .ok()?;
        Some(PairOutcome {
            left_steps,
            right_steps,
            combine,
            left_aligned: lschema,
            right_aligned: rschema,
            schema,
        })
    }

    /// Apply every registered rule that yields a needed dimension, to a
    /// fixpoint (this derives heat on the rack-temperature dataset and
    /// rates/active frequency on the counter datasets).
    pub(super) fn saturate(&self, mut cand: Cand, needed: &BTreeSet<String>) -> Cand {
        let dict = self.catalog.dict();
        for _ in 0..16 {
            let mut progressed = false;
            for rule in self.catalog.rules() {
                if !rule.yields.iter().any(|y| needed.contains(y)) {
                    continue;
                }
                if let Some(t) = (rule.build)(&cand.schema, dict) {
                    if let Ok(schema) = t.derive_schema(&cand.schema, dict) {
                        if schema != cand.schema {
                            cand = Cand {
                                plan: cand.plan.then(t.spec()),
                                schema,
                            };
                            self.stats.lock().rules_applied += 1;
                            progressed = true;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        cand
    }

    /// Append unit conversions for value requests whose units differ from
    /// what the solution carries, then return the plan.
    pub(super) fn finalize(&self, cand: Cand, query: &Query) -> Plan {
        let dict = self.catalog.dict();
        let mut plan = cand.plan;
        let mut schema = cand.schema;
        for v in &query.values {
            let Some(want) = &v.units else { continue };
            let Some(field) = schema.value_field_on(&v.dimension) else {
                continue;
            };
            if &field.semantics.units == want {
                continue;
            }
            let spec = DerivationSpec::ConvertUnits {
                column: field.name.clone(),
                to: want.clone(),
            };
            if let Some(t) = spec.as_transformation() {
                if let Ok(s) = t.derive_schema(&schema, dict) {
                    schema = s;
                    plan = plan.then(spec);
                }
            }
        }
        plan
    }

    /// Dry-run a query: the schema its plan would produce (semantics only,
    /// no data touched).
    pub fn solution_schema(&self, query: &Query) -> Result<Schema> {
        let plan = self.solve(query)?;
        plan_schema(&plan, self.catalog)
    }
}

/// Compute the schema a plan produces, without executing data operations.
pub(crate) fn plan_schema(plan: &Plan, catalog: &Catalog) -> Result<Schema> {
    match plan {
        Plan::Load { dataset } => Ok(catalog.dataset(dataset)?.schema().clone()),
        Plan::Transform { spec, input } => {
            let s = plan_schema(input, catalog)?;
            spec.as_transformation()
                .ok_or_else(|| SjError::SemanticsInvalid("not a transformation".into()))?
                .derive_schema(&s, catalog.dict())
        }
        Plan::Combine { spec, left, right } => {
            let l = plan_schema(left, catalog)?;
            let r = plan_schema(right, catalog)?;
            spec.as_combination()
                .ok_or_else(|| SjError::SemanticsInvalid("not a combination".into()))?
                .derive_schema(&l, &r, catalog.dict())
        }
    }
}

/// Attach a memoized pair outcome to two concrete candidate plans.
fn attach_outcome(left: &Cand, right: &Cand, o: &PairOutcome) -> Cand {
    let mut lplan = left.plan.clone();
    for s in &o.left_steps {
        lplan = lplan.then(s.clone());
    }
    let mut rplan = right.plan.clone();
    for s in &o.right_steps {
        rplan = rplan.then(s.clone());
    }
    Cand {
        plan: lplan.combine(o.combine.clone(), rplan),
        schema: o.schema.clone(),
    }
}

/// Greedy set cover over the `allowed` candidate indices: pick candidates
/// covering the most uncovered targets until all targets are covered
/// (ties: fewer columns first, then the *higher* index, because
/// `max_by_key` keeps the last maximum — `allowed` must be ascending for
/// deterministic results). The tie-break is part of the plan: flipping
/// it changes the plan fingerprints that key result caches and routing.
///
/// Restricting to a subset `S` of the catalog is plan-preserving: when
/// `S` contains every index the unrestricted cover would pick, the
/// argmax over `S` sees the same maxima in the same order, so the picks
/// are identical. This is what lets `solve` reuse the reference fold
/// shape on its supplier universe.
pub(super) fn greedy_cover(
    schema_of: &dyn Fn(usize) -> Schema,
    targets: &[(String, bool)],
    allowed: &[usize],
) -> Vec<usize> {
    let covers = |s: &Schema, t: &(String, bool)| -> bool {
        if t.1 {
            s.domain_field_on(&t.0).is_some()
        } else {
            s.value_field_on(&t.0).is_some()
        }
    };
    let mut uncovered: Vec<&(String, bool)> = targets.iter().collect();
    let mut picked = Vec::new();
    while !uncovered.is_empty() {
        let best = allowed
            .iter()
            .copied()
            .filter(|i| !picked.contains(i))
            .max_by_key(|&i| {
                let s = schema_of(i);
                let n = uncovered.iter().filter(|t| covers(&s, t)).count();
                (n, std::cmp::Reverse(s.len()))
            });
        let Some(best) = best else { break };
        let s = schema_of(best);
        let n = uncovered.iter().filter(|t| covers(&s, t)).count();
        if n == 0 {
            break;
        }
        uncovered.retain(|t| !covers(&s, t));
        picked.push(best);
    }
    picked
}

/// The widening order (Algorithm 1's "add one more dataset" step):
/// candidates from `allowed` not in the seed, sorted by how many domain
/// dimensions they share with the seed's combined domain (descending;
/// the sort is stable, so ties stay in ascending-index order).
///
/// Like [`greedy_cover`], restricting `allowed` to a superset of what
/// the reference search would actually append preserves the append
/// order.
pub(super) fn addition_order(
    schema_of: &dyn Fn(usize) -> Schema,
    seed: &[usize],
    allowed: &[usize],
) -> Vec<usize> {
    let mut seed_dims: BTreeSet<String> = BTreeSet::new();
    for &i in seed {
        seed_dims.extend(
            schema_of(i)
                .domain_dimensions()
                .into_iter()
                .map(String::from),
        );
    }
    let mut order: Vec<usize> = allowed
        .iter()
        .copied()
        .filter(|i| !seed.contains(i))
        .collect();
    order.sort_by_key(|&i| {
        let shared = schema_of(i)
            .domain_dimensions()
            .iter()
            .filter(|&&d| seed_dims.contains(d))
            .count();
        std::cmp::Reverse(shared)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryValue;
    use crate::row::Row;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;
    use crate::units::time::{TimeSpan, Timestamp};
    use crate::value::Value;
    use crate::SjDataset;
    use sjdf::ExecCtx;

    /// A small catalog shaped like the paper's first DAT (§7.1): a job
    /// queue log, the node/rack layout, and rack temperature sensors.
    fn dat1_catalog(ctx: &ExecCtx) -> Catalog {
        let mut c = Catalog::default_hpc();

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
        let joblog_rows = vec![Row::new(vec![
            Value::str("1001"),
            Value::str("AMG"),
            Value::list([Value::str("cab1"), Value::str("cab2")]),
            Value::Float(240.0),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(0),
                Timestamp::from_secs(240),
            )),
        ])];
        c.register_dataset(
            "job_queue_log",
            SjDataset::from_rows(ctx, joblog_rows, joblog_schema, "job_queue_log", 1),
        )
        .unwrap();

        let layout_schema = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        ])
        .unwrap();
        let layout_rows = vec![
            Row::new(vec![Value::str("cab1"), Value::str("rack17")]),
            Row::new(vec![Value::str("cab2"), Value::str("rack17")]),
        ];
        c.register_dataset(
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
        for t in [0i64, 120, 240] {
            for (aisle, base) in [("hot", 35.0), ("cold", 18.0)] {
                temps_rows.push(Row::new(vec![
                    Value::str("rack17"),
                    Value::str("top"),
                    Value::str(aisle),
                    Value::Time(Timestamp::from_secs(t)),
                    Value::Float(base + t as f64 / 100.0),
                ]));
            }
        }
        c.register_dataset(
            "rack_temps",
            SjDataset::from_rows(ctx, temps_rows, temps_schema, "rack_temps", 1),
        )
        .unwrap();
        c
    }

    fn rack_heat_query() -> Query {
        Query::new(
            ["job", "rack"],
            vec![QueryValue::dim("application"), QueryValue::dim("heat")],
        )
    }

    #[test]
    fn solves_the_figure5_query_with_the_figure5_shape() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let plan = engine.solve(&rack_heat_query()).unwrap();

        let ops: Vec<&str> = plan.ops().iter().map(|s| s.op_name()).collect();
        // The Figure 5 sequence: explode discrete + explode continuous on
        // the job log, natural join with the layout, derive heat on the
        // rack temps, interpolation join at the top.
        assert!(ops.contains(&"explode_discrete"), "{ops:?}");
        assert!(ops.contains(&"explode_continuous"), "{ops:?}");
        assert!(ops.contains(&"natural_join"), "{ops:?}");
        assert!(ops.contains(&"derive_heat"), "{ops:?}");
        assert_eq!(*ops.last().unwrap(), "interpolation_join", "{ops:?}");
        // All three datasets participate.
        let mut loads = plan.loads();
        loads.sort();
        assert_eq!(loads, vec!["job_queue_log", "node_layout", "rack_temps"]);
    }

    #[test]
    fn solution_schema_satisfies_the_query() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let q = rack_heat_query().canonicalize(cat.dict()).unwrap();
        let schema = engine.solution_schema(&rack_heat_query()).unwrap();
        assert!(q.satisfied_by(&schema, cat.dict()));
    }

    #[test]
    fn executing_the_plan_produces_job_heat_relations() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let plan = engine.solve(&rack_heat_query()).unwrap();
        let ds = plan.execute(&cat, None).unwrap();
        let rows = ds.collect().unwrap();
        assert!(!rows.is_empty());
        let app_idx = ds.schema().index_of("job_name").unwrap();
        let heat_idx = ds.schema().index_of("heat").unwrap();
        for r in &rows {
            assert_eq!(r.get(app_idx).as_str(), Some("AMG"));
            let heat = r.get(heat_idx).as_f64().unwrap();
            assert!((16.0..=18.5).contains(&heat), "heat={heat}");
        }
    }

    #[test]
    fn single_dataset_queries_short_circuit() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let q = Query::new(["rack"], vec![QueryValue::dim("temperature")]);
        let plan = engine.solve(&q).unwrap();
        assert_eq!(plan.loads(), vec!["rack_temps"]);
        assert_eq!(plan.num_combines(), 0);
    }

    #[test]
    fn unknown_domain_dimension_has_no_solution() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let q = Query::new(["cpu"], vec![QueryValue::dim("temperature")]);
        assert!(matches!(
            engine.solve(&q).unwrap_err(),
            SjError::NoSolution(_)
        ));
    }

    #[test]
    fn unrecorded_underivable_value_has_no_solution() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let q = Query::new(["rack"], vec![QueryValue::dim("power")]);
        assert!(matches!(
            engine.solve(&q).unwrap_err(),
            SjError::NoSolution(_)
        ));
    }

    #[test]
    fn memoization_reduces_pair_tests() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        engine.solve(&rack_heat_query()).unwrap();
        let first = engine.stats();
        engine.solve(&rack_heat_query()).unwrap();
        let second = engine.stats();
        assert!(second.memo_hits > first.memo_hits);
        assert_eq!(second.pair_tests, first.pair_tests);

        let no_memo = QueryEngine::with_config(
            &cat,
            EngineConfig {
                memoize: false,
                ..EngineConfig::default()
            },
        );
        no_memo.solve(&rack_heat_query()).unwrap();
        no_memo.solve(&rack_heat_query()).unwrap();
        assert!(no_memo.stats().pair_tests > first.pair_tests);
        assert_eq!(no_memo.stats().memo_hits, 0);
    }

    #[test]
    fn mirrored_pair_test_hits_the_memo() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let mk = |name: &str| {
            let ds = cat.dataset(name).unwrap();
            Cand {
                plan: Plan::load(name),
                schema: ds.schema().clone(),
            }
        };
        let layout = mk("node_layout");
        let temps = mk("rack_temps");

        let fwd = engine.combine_pair(&layout, &temps, true).unwrap();
        let s1 = engine.stats();
        assert_eq!(s1.pair_tests, 1);
        assert_eq!(s1.memo_hits, 0);

        // The reversed orientation must answer from the memo, not re-run
        // the alignment logic.
        let rev = engine.combine_pair(&temps, &layout, true).unwrap();
        let s2 = engine.stats();
        assert_eq!(s2.pair_tests, 1, "reversed test re-ran the pair logic");
        assert_eq!(s2.memo_hits, 1);

        // The mirrored outcome is a real combination over the same
        // dimensions, with the sides exchanged.
        assert_eq!(
            fwd.schema.domain_dimensions(),
            rev.schema.domain_dimensions()
        );
        assert_eq!(rev.plan.loads().first(), Some(&"rack_temps"));

        // A second reversed call hits the now-materialized direction slot.
        let _ = engine.combine_pair(&temps, &layout, true).unwrap();
        let s3 = engine.stats();
        assert_eq!(s3.pair_tests, 1);
        assert_eq!(s3.memo_hits, 2);
    }

    #[test]
    fn budget_stop_reports_truncation_not_unsatisfiability() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::with_config(
            &cat,
            EngineConfig {
                max_datasets: 2,
                allow_unanchored: false,
                ..EngineConfig::default()
            },
        );
        // Needs all three datasets, but the budget allows only two.
        for err in [
            engine.solve(&rack_heat_query()).unwrap_err(),
            engine.solve_reference(&rack_heat_query()).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    SjError::SearchTruncated {
                        max_datasets: 2,
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn greedy_cover_breaks_ties_toward_fewer_columns_then_higher_index() {
        let narrow = Schema::new(vec![FieldDef::new(
            "rack",
            FieldSemantics::domain("rack", "rack-id"),
        )])
        .unwrap();
        let wide = Schema::new(vec![
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
            FieldDef::new("aisle", FieldSemantics::domain("aisle", "aisle-name")),
        ])
        .unwrap();
        let targets = [("rack".to_string(), true)];
        // Three identical candidates: the last maximum wins.
        let same = |_: usize| narrow.clone();
        assert_eq!(greedy_cover(&same, &targets, &[0, 1, 2]), vec![2]);
        // Fewer columns outranks index.
        let mixed = |i: usize| if i == 0 { narrow.clone() } else { wide.clone() };
        assert_eq!(greedy_cover(&mixed, &targets, &[0, 1, 2]), vec![0]);
    }

    #[test]
    fn fold_tie_break_goes_bushy_only_on_a_strictly_lower_score() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        // Fold [rack_temps, job_queue_log, node_layout], the DF order the
        // seed gives Fig. 5, for the query asking for `domains`.
        let fold = |domains: &[&str]| {
            let query = Query {
                domains: domains.iter().map(|d| d.to_string()).collect(),
                values: vec![QueryValue::dim("application"), QueryValue::dim("heat")],
            }
            .canonicalize(cat.dict())
            .unwrap();
            let needed = engine.needed_closure(&query);
            let cands: Vec<Cand> = ["rack_temps", "job_queue_log", "node_layout"]
                .into_iter()
                .map(|name| {
                    let schema = cat.dataset(name).unwrap().schema().clone();
                    let plan = Plan::load(name);
                    engine.saturate(Cand { plan, schema }, &needed)
                })
                .collect();
            let get = |i: usize| cands[i].clone();
            let plan = engine
                .combine_set(&get, &[0, 1, 2], &needed, true, &query)
                .unwrap()
                .plan;
            let Plan::Combine {
                spec: DerivationSpec::InterpolationJoin { .. },
                left,
                ..
            } = plan
            else {
                panic!("top is not an interpolation join:\n{}", plan.describe());
            };
            *left
        };
        let heat = Plan::load("rack_temps").then(DerivationSpec::DeriveHeat);
        let heat_on_layout = heat
            .clone()
            .combine(DerivationSpec::NaturalJoin, Plan::load("node_layout"));

        // Left-deep: (heat ⋈ layout) ⋈ᵢ jobs, anchored on compute-node.
        // Bushy: heat ⋈ᵢ (jobs ⋈ layout), anchored on rack.
        // Asked for job and rack: left-deep scores 1, bushy 0 — bushy.
        assert_eq!(fold(&["job", "rack"]), heat);
        // Asked for job only: both score 1 — the tie keeps left-deep.
        assert_eq!(fold(&["job"]), heat_on_layout);
        // Asked for job and compute-node: left-deep scores 0, so the
        // bushy fold is never tried.
        assert_eq!(fold(&["job", "compute-node"]), heat_on_layout);
    }

    #[test]
    fn stats_accumulate_across_solves() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        engine.solve(&rack_heat_query()).unwrap();
        let first = engine.stats().datasets_considered;
        assert!(first > 0);
        engine.solve(&rack_heat_query()).unwrap();
        assert!(
            engine.stats().datasets_considered > first,
            "datasets_considered must accumulate, not reset per solve"
        );
    }

    #[test]
    fn unit_conversion_is_appended_when_requested() {
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let q = Query::new(
            ["rack"],
            vec![QueryValue::with_units("temperature", "fahrenheit")],
        );
        let plan = engine.solve(&q).unwrap();
        let ops: Vec<&str> = plan.ops().iter().map(|s| s.op_name()).collect();
        assert_eq!(ops, vec!["convert_units"]);
        let ds = plan.execute(&cat, None).unwrap();
        let f = ds.schema().field("temp").unwrap();
        assert_eq!(f.semantics.units, "fahrenheit");
    }

    #[test]
    fn anchored_paths_are_preferred_over_time_only_joins() {
        // Even though job_queue_log and rack_temps share `time`, the plan
        // must route through node_layout (anchored joins only).
        let ctx = ExecCtx::local();
        let cat = dat1_catalog(&ctx);
        let engine = QueryEngine::new(&cat);
        let plan = engine.solve(&rack_heat_query()).unwrap();
        assert!(plan.loads().contains(&"node_layout"));
        assert_eq!(plan.num_combines(), 2);
    }
}
