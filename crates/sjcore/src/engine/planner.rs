//! The production planner: the §5.2 search run on the slice of the
//! catalog that the query's dimensions can reach.
//!
//! The reference search ([`QueryEngine::solve_reference`]) saturates
//! *every* catalog dataset before it picks a seed, which is O(catalog)
//! per query. This module builds one [`CatalogIndex`] per engine (an
//! inverted map from dimension to the datasets whose raw schemas carry
//! it) and answers each query from it:
//!
//! - A queried **domain** dimension is supplied by exactly the datasets
//!   the index lists for it. Neither combinations nor rules ever invent
//!   a domain dimension, so raw schemas are exact here.
//! - A needed **value** dimension (a queried value, or one pulled in by
//!   backward chaining through rule needs) is supplied by the datasets
//!   recording it plus the *hosts* of every rule yielding it — the
//!   datasets recording some dimension in the rule's transitive needs —
//!   kept only where the saturated schema really carries the dimension.
//!
//! Saturation is lazy and cached per query: a dataset is saturated when
//! the search first examines it, and the rule fixpoint runs only on
//! datasets that record a needed value dimension or host a rule
//! yielding one. Plan construction reuses the reference machinery: the
//! single-dataset shortcut over the intersection of the query's
//! supplier sets, the greedy-cover seed over their union, and the
//! anchored-then-unanchored widening over `QueryEngine::combine_set`,
//! the one fold (tie-break included) both searches call. Widening walks
//! ring 1 (datasets sharing a saturated seed domain dimension, under the
//! reference widening key) and builds ring 2 (everything else, in index
//! order) only if ring 1 runs out. A query therefore examines the
//! datasets its dimensions reach, which is why planning time stays
//! nearly flat as the catalog grows.
//!
//! **Parity.** Any candidate the reference greedy cover could pick
//! covers at least one target, so it lies in the supplier union in the
//! same relative order, and the restricted cover picks the same seed.
//! Ring 1 followed by ring 2 reproduces the reference addition order,
//! and both searches fold each `DF` with the same function. Both
//! therefore emit byte-identical plans and errors on every catalog,
//! which `tests/planner_parity.rs` checks on a hand-built corpus and a
//! seeded random-catalog sweep.

use super::plan::Plan;
use super::search::{addition_order, greedy_cover, Cand, QueryEngine};
use super::Query;
use crate::catalog::Catalog;
use crate::error::{Result, SjError};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Inverted dimension indexes over a catalog's raw schemas, built once
/// per engine and shared by every query ([`QueryEngine`] holds one in a
/// `OnceLock`). Dataset indices follow catalog name order, matching the
/// reference search's candidate numbering.
pub(super) struct CatalogIndex {
    names: Vec<String>,
    /// domain dimension -> dataset indices carrying it (ascending).
    domain: HashMap<String, Vec<usize>>,
    /// value dimension -> dataset indices recording it (ascending).
    value: HashMap<String, Vec<usize>>,
}

impl CatalogIndex {
    /// One pass over raw schemas — no saturation, no data access.
    pub(super) fn build(catalog: &Catalog) -> Self {
        let mut names = Vec::new();
        let mut domain: HashMap<String, Vec<usize>> = HashMap::new();
        let mut value: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, (name, ds)) in catalog.datasets().enumerate() {
            names.push(name.to_string());
            for f in ds.schema().domain_fields() {
                let slot = domain.entry(f.semantics.dimension.clone()).or_default();
                if slot.last() != Some(&i) {
                    slot.push(i);
                }
            }
            for f in ds.schema().value_fields() {
                let slot = value.entry(f.semantics.dimension.clone()).or_default();
                if slot.last() != Some(&i) {
                    slot.push(i);
                }
            }
        }
        CatalogIndex {
            names,
            domain,
            value,
        }
    }

    fn domain_sets(&self, dim: &str) -> &[usize] {
        self.domain.get(dim).map(Vec::as_slice).unwrap_or(&[])
    }

    fn value_sets(&self, dim: &str) -> &[usize] {
        self.value.get(dim).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Per-query lazy store of saturated candidates. Datasets outside
/// `support` (those recording no needed value dimension and hosting no
/// rule that yields one) saturate to themselves, so the rule fixpoint
/// only runs on datasets that can actually gain columns.
struct Saturated<'a, 'c> {
    engine: &'a QueryEngine<'c>,
    index: &'a CatalogIndex,
    needed: &'a BTreeSet<String>,
    support: BTreeSet<usize>,
    cache: RefCell<HashMap<usize, Cand>>,
}

impl Saturated<'_, '_> {
    fn get(&self, i: usize) -> Cand {
        if let Some(c) = self.cache.borrow().get(&i) {
            return c.clone();
        }
        let name = &self.index.names[i];
        let ds = self
            .engine
            .catalog()
            .dataset(name)
            .expect("indexed dataset exists");
        let mut cand = Cand {
            plan: Plan::load(name),
            schema: ds.schema().clone(),
        };
        if self.support.contains(&i) {
            cand = self.engine.saturate(cand, self.needed);
        }
        self.engine.bump_stats(|s| s.datasets_considered += 1);
        self.cache.borrow_mut().insert(i, cand.clone());
        cand
    }
}

/// Feasibility screen equivalent to the reference raw-schema scan, but
/// answered from the index (same error messages, O(query) lookups).
fn check_feasibility(index: &CatalogIndex, catalog: &Catalog, query: &Query) -> Result<()> {
    if index.names.is_empty() {
        return Err(SjError::NoSolution("catalog is empty".into()));
    }
    for d in &query.domains {
        if index.domain_sets(d).is_empty() {
            return Err(SjError::NoSolution(format!(
                "domain dimension `{d}` exists in no dataset \
                 (combinations cannot infer new domain dimensions)"
            )));
        }
    }
    for v in &query.values {
        let present = !index.value_sets(&v.dimension).is_empty();
        let derivable = catalog
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

/// Transitive needs closure of one rule: its direct needs plus the
/// needs of every rule that can yield one of them (cycle-safe — rules
/// whose yields equal their needs, like counter rates, fixpoint).
fn rule_needs_closure(catalog: &Catalog, rule_idx: usize) -> BTreeSet<String> {
    let mut needs: BTreeSet<String> = catalog.rules()[rule_idx].needs.iter().cloned().collect();
    loop {
        let before = needs.len();
        for r in catalog.rules() {
            if r.yields.iter().any(|y| needs.contains(y)) {
                needs.extend(r.needs.iter().cloned());
            }
        }
        if needs.len() == before {
            break;
        }
    }
    needs
}

/// Solve a (canonical) query on the index slice.
pub(super) fn solve(engine: &QueryEngine<'_>, query: &Query) -> Result<Plan> {
    let catalog = engine.catalog();
    let dict = catalog.dict();
    let index = engine.index.get_or_init(|| CatalogIndex::build(catalog));
    check_feasibility(index, catalog, query)?;
    let needed = engine.needed_closure(query);

    // --- Value supplier candidates: the recording datasets, plus the
    //     hosts of every rule yielding the dimension. Hosts also join
    //     the saturation support. ---
    let mut proposed: Vec<BTreeSet<usize>> = needed
        .iter()
        .map(|dim| index.value_sets(dim).iter().copied().collect())
        .collect();
    let mut support: BTreeSet<usize> = proposed.iter().flatten().copied().collect();
    for (ri, rule) in catalog.rules().iter().enumerate() {
        if !rule.yields.iter().any(|y| needed.contains(y)) {
            continue;
        }
        let hosts: BTreeSet<usize> = rule_needs_closure(catalog, ri)
            .iter()
            .flat_map(|dim| index.value_sets(dim).iter().copied())
            .collect();
        for (slot, dim) in proposed.iter_mut().zip(&needed) {
            if rule.yields.contains(dim) {
                slot.extend(&hosts);
            }
        }
        support.extend(hosts);
    }
    let sat = Saturated {
        engine,
        index,
        needed: &needed,
        support,
        cache: RefCell::new(HashMap::new()),
    };
    // Keep a candidate only where its saturated schema carries the
    // dimension (a rule host may lack the rule's other inputs).
    let suppliers: BTreeMap<&str, BTreeSet<usize>> = proposed
        .into_iter()
        .zip(&needed)
        .map(|(cands, dim)| {
            let ok = cands
                .into_iter()
                .filter(|&i| sat.get(i).schema.value_field_on(dim).is_some())
                .collect();
            (dim.as_str(), ok)
        })
        .collect();

    // --- Single-candidate shortcut (reference-identical ascending scan,
    //     restricted to the intersection of the query's supplier sets,
    //     which contains every possibly-satisfying dataset). ---
    let base = query
        .domains
        .iter()
        .map(|d| index.domain_sets(d).iter().copied().collect())
        .chain(
            query
                .values
                .iter()
                .map(|v| suppliers[v.dimension.as_str()].clone()),
        )
        .reduce(|a: BTreeSet<usize>, b| a.intersection(&b).copied().collect());
    let shortlist: Vec<usize> = match base {
        Some(b) => b.into_iter().collect(),
        None => (0..index.names.len()).collect(),
    };
    for i in shortlist {
        let c = sat.get(i);
        if query.satisfied_by(&c.schema, dict) {
            return Ok(engine.finalize(c, query));
        }
    }

    // --- Coverage targets and seed, reference-identical but restricted
    //     to the supplier universe. ---
    let mut targets: Vec<(String, bool)> =
        query.domains.iter().map(|d| (d.clone(), true)).collect();
    for dim in &needed {
        if !suppliers[dim.as_str()].is_empty() {
            targets.push((dim.clone(), false));
        }
    }
    let universe: Vec<usize> = query
        .domains
        .iter()
        .flat_map(|d| index.domain_sets(d).iter().copied())
        .chain(suppliers.values().flatten().copied())
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect();
    let schema_of = |i: usize| sat.get(i).schema;
    let seed = greedy_cover(&schema_of, &targets, &universe);

    // --- Widening universe, ring by ring. Ring 1: datasets sharing a
    //     domain dimension with the seed, under the reference widening
    //     key (shared count desc, index asc). Ring 2 (built only if
    //     ring 1 exhausts): everything else in index order — identical
    //     to the tail of the reference addition order. ---
    let mut seed_dims: BTreeSet<String> = BTreeSet::new();
    for &i in &seed {
        seed_dims.extend(
            sat.get(i)
                .schema
                .domain_dimensions()
                .into_iter()
                .map(String::from),
        );
    }
    let ring1_raw: Vec<usize> = seed_dims
        .iter()
        .flat_map(|d| index.domain_sets(d).iter().copied())
        .filter(|i| !seed.contains(i))
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect();
    let ring1: Vec<usize> = addition_order(&schema_of, &seed, &ring1_raw)
        .into_iter()
        .filter(|&i| {
            // Demote raw matches whose saturated schema lost the
            // shared dimension to ring 2 (index order there).
            sat.get(i)
                .schema
                .domain_dimensions()
                .iter()
                .any(|d| seed_dims.contains(*d))
        })
        .collect();

    let mut order = ring1;
    let mut ring2_built = false;
    let mut truncated = false;
    for anchored_only in [true, false] {
        if !anchored_only && !engine.config().allow_unanchored {
            break;
        }
        let mut df: Vec<usize> = seed.clone();
        loop {
            let get = |i: usize| sat.get(i);
            if let Some(result) = engine.combine_set(&get, &df, &needed, anchored_only, query) {
                if query.satisfied_by(&result.schema, dict) {
                    return Ok(engine.finalize(result, query));
                }
            }
            let mut next = order.iter().copied().find(|i| !df.contains(i));
            if next.is_none() && !ring2_built {
                let present: BTreeSet<usize> = order.iter().chain(seed.iter()).copied().collect();
                order.extend((0..index.names.len()).filter(|i| !present.contains(i)));
                ring2_built = true;
                next = order.iter().copied().find(|i| !df.contains(i));
            }
            match next {
                Some(next) if df.len() < engine.config().max_datasets => df.push(next),
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
            max_datasets: engine.config().max_datasets,
        })
    } else {
        Err(SjError::NoSolution(query.describe()))
    }
}
