//! Interactive session handles.
//!
//! A [`SessionHandle`] pins one `(database, query)` pair and answers
//! repeated [`ask`](SessionHandle::ask) calls. The first question pays
//! for provenance, join-graph enumeration, and APT materialization; the
//! service caches all three keyed by database epoch, canonical SQL, and
//! canonical join-graph key, so later questions — from this handle or any
//! other session on the same query — skip straight to mining (§2.4's
//! interactive usage pattern).

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use cajade_core::pipeline::{self, GraphOutcome, PreparedQuery};
use cajade_core::{Params, SessionResult, UserQuestion};
use cajade_mining::PreparedApt;
use cajade_obs::{span, Collector, SpanRecord};
use cajade_query::Query;
use rayon::prelude::*;

use crate::colstats::DbColumnStats;
use crate::keys::{AnswerKey, AptKey, ProvKey};
use crate::service::{AptEntry, RegisteredDb, ServiceInner};
use crate::{Result, ServiceError};

/// Per-ask knobs beyond the question itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct AskOptions {
    /// Capture a per-request span tree ([`AskResult::trace`]).
    pub trace: bool,
    /// Request budget: the deadline after which every pipeline phase
    /// stops at its next cooperative check and the ask returns a
    /// best-so-far, [`SessionResult::degraded`] answer. `None` runs to
    /// completion (the disabled budget check costs ~ns).
    pub timeout: Option<Duration>,
}

/// One answered question plus its cache telemetry.
#[derive(Debug)]
pub struct AskResult {
    /// The ranked explanations and pipeline statistics. On a warm ask the
    /// provenance / enumeration / materialization timings reflect work
    /// actually done (zero on cache hits), mirroring the latency the
    /// caller observed.
    pub result: SessionResult,
    /// Whether the fully-ranked answer came straight from the answer
    /// cache (same db epoch, query, parameters, and question). When true,
    /// no pipeline stage ran at all.
    pub answer_cache_hit: bool,
    /// Whether provenance + enumeration came from cache.
    pub provenance_cache_hit: bool,
    /// Join graphs whose APT came from cache.
    pub apt_cache_hits: usize,
    /// Join graphs whose APT had to be materialized.
    pub apt_cache_misses: usize,
    /// End-to-end wall clock of this ask.
    pub wall: Duration,
    /// The request's span tree (flat records with parent pointers),
    /// captured when the ask was issued with
    /// [`ask_traced`](SessionHandle::ask_traced)`(…, true)`; `None`
    /// otherwise. Spans cover the pipeline stages actually executed —
    /// a warm ask has no `provenance`/`jg_enum` spans because those
    /// stages never ran.
    pub trace: Option<Vec<SpanRecord>>,
}

/// An open interactive session. Cheap to share across threads; all
/// mutable state lives in the service's caches.
pub struct SessionHandle {
    id: u64,
    db_name: String,
    query: Query,
    sql: String,
    params: Params,
    params_fingerprint: u64,
    prep_fingerprint: u64,
    mining_fingerprint: u64,
    service: Weak<ServiceInner>,
}

impl SessionHandle {
    pub(crate) fn new(
        id: u64,
        db_name: String,
        query: Query,
        params: Params,
        service: Weak<ServiceInner>,
    ) -> Self {
        let sql = query.to_sql();
        let params_fingerprint = SessionHandle::params_fingerprint_of(&params);
        // Only the enumeration-relevant knobs key the prepared-query
        // cache: two sessions differing purely in mining parameters can
        // safely share one prepared result.
        let prep_fingerprint = fnv1a(
            format!(
                "{}|{}|{}|{}",
                params.max_edges,
                params.max_cost.to_bits(),
                params.check_pk_coverage,
                params.include_pt_only
            )
            .as_bytes(),
        );
        // Keys an APT entry's prepared state (`AptEntry::prepared_for`).
        let mining_fingerprint = fnv1a(format!("{:?}", params.mining).as_bytes());
        SessionHandle {
            id,
            db_name,
            query,
            sql,
            params,
            params_fingerprint,
            prep_fingerprint,
            mining_fingerprint,
            service,
        }
    }

    /// The cache fingerprint of a parameter set. The Debug rendering
    /// covers every λ; hashing it is a pragmatic fingerprint without a
    /// bespoke Hash impl across crates.
    pub(crate) fn params_fingerprint_of(params: &Params) -> u64 {
        fnv1a(format!("{params:?}").as_bytes())
    }

    /// Session id (stable for the lifetime of the service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The registered database name this session queries.
    pub fn db_name(&self) -> &str {
        &self.db_name
    }

    /// Canonical SQL of the session's query.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The session's pipeline parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Answers one user question.
    ///
    /// Stage reuse: provenance + enumeration are fetched from (or
    /// inserted into) the provenance cache; each valid join graph's APT
    /// is fetched from (or materialized into) the APT cache; mining and
    /// ranking always run because they depend on the question.
    pub fn ask(&self, question: &UserQuestion) -> Result<AskResult> {
        self.ask_traced(question, false)
    }

    /// Like [`ask`](SessionHandle::ask); with `trace` set, the request
    /// additionally runs under a per-request span
    /// [`Collector`] and [`AskResult::trace`] carries
    /// the full span tree (one record per executed pipeline phase, with
    /// parent pointers). Tracing changes nothing about the answer; it
    /// adds one collector allocation plus a few µs of span bookkeeping.
    pub fn ask_traced(&self, question: &UserQuestion, trace: bool) -> Result<AskResult> {
        self.ask_with(
            question,
            &AskOptions {
                trace,
                timeout: None,
            },
        )
    }

    /// The fully-optioned ask: tracing and/or a request budget.
    ///
    /// With [`AskOptions::timeout`] set, a [`cajade_obs::Budget`] is
    /// installed around the whole pipeline; phases check it cooperatively
    /// (join-graph materialization boundaries, mining-preparation phase
    /// boundaries, forest-training task boundaries, every 64 refinement
    /// patterns) and stop early when the deadline passes. The ask still
    /// returns `Ok` with valid, merely less-refined explanations and
    /// [`SessionResult::degraded`] set; degraded results are never
    /// cached.
    pub fn ask_with(&self, question: &UserQuestion, opts: &AskOptions) -> Result<AskResult> {
        let run = || {
            if !opts.trace {
                return self.ask_inner(question, None);
            }
            let collector = Collector::new();
            let mut result = collector.with(None, || self.ask_inner(question, Some(&collector)))?;
            result.trace = Some(collector.finish());
            Ok(result)
        };
        match opts.timeout {
            None => run(),
            Some(timeout) => cajade_obs::Budget::with_timeout(timeout).install(run),
        }
    }

    fn ask_inner(
        &self,
        question: &UserQuestion,
        collector: Option<&Arc<Collector>>,
    ) -> Result<AskResult> {
        let inner = self.service.upgrade().ok_or(ServiceError::ServiceDropped)?;
        let t_start = Instant::now();
        let ask_span = span("ask");
        // The request budget (if any) and the caller's alloc-scope chain
        // live in thread-local state; rayon worker closures re-install
        // both via `in_scope` below, exactly like the span collector.
        let budget = cajade_obs::budget::current();
        let mem_scope = cajade_obs::alloc::current_scope();
        let reg: Arc<RegisteredDb> = inner.registered(&self.db_name)?;

        // ---- Stage 0: the fully-ranked answer may already be cached. ----
        let answer_key = AnswerKey {
            db: self.db_name.clone(),
            epoch: reg.epoch,
            sql: self.sql.clone(),
            params_fingerprint: self.params_fingerprint,
            question: AnswerKey::canonical_question(question),
        };
        if let Some(cached) = inner.answer_cache.get(&answer_key) {
            inner
                .questions_answered
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut result = (*cached).clone();
            // No pipeline stage ran; the cold run's stage timings would
            // misreport this request's work.
            result.timings = cajade_core::SessionTimings::default();
            let wall = t_start.elapsed();
            inner.obs.record_ask(wall, &result.timings);
            return Ok(AskResult {
                result,
                answer_cache_hit: true,
                provenance_cache_hit: true,
                apt_cache_hits: 0,
                apt_cache_misses: 0,
                wall,
                trace: None,
            });
        }

        // ---- Stage 1+2: provenance + enumeration, cached. ---------------
        let resolve_span = span("resolve_query");
        let (prepared, provenance_cache_hit) = self.prepare_cached(&inner, &reg)?;

        let mining_question =
            pipeline::resolve_question(&reg.db, &self.query, &prepared.pt, question)?;
        drop(resolve_span);

        // ---- Stage 3: APTs, cached per canonical join-graph key. --------
        // Each APT is resolved through the cache's single-flight latch, so
        // two concurrent cold asks on the same query share one `AptEntry`
        // per graph: one thread materializes, the other coalesces — and
        // because the entry object is shared, the (more expensive) mining
        // preparation below is deduplicated by the entry's own lock too.
        let valid = prepared.valid_graph_indices();
        let mat_span = span("materialize");
        let mat_parent = mat_span.id();
        type ReadyRow = (usize, AptKey, Arc<AptEntry>, bool, Duration);
        // Worker threads have their own (empty) span stacks, so the
        // parallel closures re-enter the request's collector scope with
        // this stage's span as the explicit parent (`in_scope`).
        let resolve_one = |gi: usize| -> Result<Option<ReadyRow>> {
            in_scope(collector, budget.as_ref(), &mem_scope, mat_parent, || {
                // Budget check at the per-graph boundary: an expired
                // deadline skips the remaining graphs entirely — the ones
                // already materialized still get mined, so the answer
                // covers fewer join graphs rather than failing.
                if cajade_obs::budget::stop("materialize") {
                    return Ok(None);
                }
                let key = AptKey {
                    db: self.db_name.clone(),
                    epoch: reg.epoch,
                    sql: self.sql.clone(),
                    graph: prepared.graphs[gi].graph.key(),
                };
                let t0 = Instant::now();
                let (entry, hit) = inner.apt_cache.get_or_try_compute(
                    &key,
                    || -> Result<(Arc<AptEntry>, Option<usize>)> {
                        cajade_obs::faults::failpoint_infallible("cache.apt_compute");
                        // Attribute the retained APT to the cache that
                        // will hold it (inclusive with "materialize").
                        let _mem = cajade_obs::AllocScope::enter("cache.apt");
                        let apt =
                            pipeline::materialize(&reg.db, &prepared.pt, &prepared.graphs[gi])?;
                        let entry = AptEntry::new(Arc::new(apt));
                        // Skip caching if the database was re-registered
                        // mid-ask: keys of a stale epoch would be unreachable
                        // yet hold cache budget.
                        let bytes = inner
                            .epoch_is_current(&self.db_name, reg.epoch)
                            .then(|| entry.approx_bytes());
                        Ok((entry, bytes))
                    },
                )?;
                let mat = if hit { Duration::ZERO } else { t0.elapsed() };
                Ok(Some((gi, key, entry, hit, mat)))
            })
        };
        let mut ready: Vec<ReadyRow> = if self.params.parallel && valid.len() > 1 {
            valid
                .par_iter()
                .map(|&gi| resolve_one(gi))
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .flatten()
                .collect()
        } else {
            valid
                .into_iter()
                .map(resolve_one)
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .flatten()
                .collect()
        };
        ready.sort_by_key(|(gi, _, _, _, _)| *gi);
        drop(mat_span);
        let apt_cache_hits = ready.iter().filter(|(_, _, _, hit, _)| *hit).count();
        let apt_cache_misses = ready.len() - apt_cache_hits;

        // ---- Stage 3.5: question-independent mining preparation. --------
        // Feature selection, the LCA candidate pool, fragment boundaries,
        // and the scoring index/bitmaps depend only on (APT, mining
        // params); they are computed once per cached entry and reused by
        // every later question. Per-column statistics (bin specs,
        // fragment boundaries) are shared even further: the service's
        // column-stats cache hands every graph after the first — and
        // every later preparation touching the same context column — the
        // entry computed once per database epoch.
        let col_stats = DbColumnStats::new(&inner, &reg, &self.params);
        let prep_span = span("prepare");
        let prep_parent = prep_span.id();
        let prepare_one = |(gi, key, entry, _, mat): &ReadyRow| {
            in_scope(collector, budget.as_ref(), &mem_scope, prep_parent, || {
                let (prep, hit) = entry.prepared_for(self.mining_fingerprint, || {
                    // The prepared state is retained by the APT cache
                    // entry; account it under "cache.apt" alongside the
                    // gather it decorates.
                    let _mem = cajade_obs::AllocScope::enter("cache.apt");
                    pipeline::prepare_mining(&entry.apt, &prepared.pt, &self.params, &col_stats)
                });
                (*gi, key.clone(), Arc::clone(entry), prep, hit, *mat)
            })
        };
        type PreppedRow = (
            usize,
            AptKey,
            Arc<AptEntry>,
            Arc<PreparedApt>,
            bool,
            Duration,
        );
        let prepped: Vec<PreppedRow> = if self.params.parallel && ready.len() > 1 {
            ready.par_iter().map(prepare_one).collect()
        } else {
            ready.iter().map(prepare_one).collect()
        };
        let mut prep_hits = 0u64;
        let mut prep_misses = 0u64;
        // (Re-)insert entries so the cache accounts the APT *and* its
        // prepared state; skip if the database was re-registered mid-ask —
        // keys of a stale epoch would be unreachable yet hold budget.
        let epoch_current = inner.epoch_is_current(&self.db_name, reg.epoch);
        for (_, key, entry, _, hit, _) in &prepped {
            if *hit {
                prep_hits += 1;
                continue;
            }
            prep_misses += 1;
            if epoch_current
                && !inner
                    .apt_cache
                    .insert(key.clone(), Arc::clone(entry), entry.approx_bytes())
            {
                // Too big for the budget with prepared state attached:
                // drop the prepared variants rather than hold unaccounted
                // memory in a shared entry.
                entry.clear_prepared();
            }
        }
        inner
            .prepared_apt_hits
            .fetch_add(prep_hits, std::sync::atomic::Ordering::Relaxed);
        inner
            .prepared_apt_misses
            .fetch_add(prep_misses, std::sync::atomic::Ordering::Relaxed);
        inner.obs.prepared_apt_hits_total.add(prep_hits);
        inner.obs.prepared_apt_misses_total.add(prep_misses);
        drop(prep_span);

        // ---- Stage 4: mining (only the question-specific half). ---------
        let mine_span = span("mine");
        let mine_parent = mine_span.id();
        let mine_one = |(gi, _, entry, prep, hit, mat): &PreppedRow| -> GraphOutcome {
            in_scope(collector, budget.as_ref(), &mem_scope, mine_parent, || {
                pipeline::mine_one_prepared(
                    &prepared.pt,
                    &entry.apt,
                    prep,
                    &mining_question,
                    &self.params,
                    *gi,
                    *mat,
                    !*hit,
                )
            })
        };
        let outcomes: Vec<GraphOutcome> = if self.params.parallel && prepped.len() > 1 {
            prepped.par_iter().map(mine_one).collect()
        } else {
            prepped.iter().map(mine_one).collect()
        };
        drop(mine_span);

        // ---- Stage 5: assemble + rank. ----------------------------------
        let mut result =
            pipeline::assemble(&reg.db, &self.query, &prepared, outcomes, &self.params);
        if provenance_cache_hit {
            // Those phases were skipped; report the latency actually paid.
            result.timings.provenance = Duration::ZERO;
            result.timings.jg_enum = Duration::ZERO;
        }
        // A degraded (budget-truncated) answer is correct for *this*
        // request but must never serve a future, unbudgeted one.
        if !result.degraded && inner.epoch_is_current(&self.db_name, reg.epoch) {
            let _mem = cajade_obs::AllocScope::enter("cache.answer");
            let retained = Arc::new(result.clone());
            inner
                .answer_cache
                .insert(answer_key, retained, answer_bytes(&result));
        }
        if result.degraded {
            inner.obs.ask_degraded_total.inc();
        }
        if cajade_obs::budget::expired() {
            inner.obs.ask_deadline_exceeded_total.inc();
        }
        inner
            .questions_answered
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        drop(ask_span);
        let wall = t_start.elapsed();
        inner.obs.record_ask(wall, &result.timings);
        Ok(AskResult {
            result,
            answer_cache_hit: false,
            provenance_cache_hit,
            apt_cache_hits,
            apt_cache_misses,
            wall,
            trace: None,
        })
    }

    /// Convenience: two-point question from `(column, value)` pairs.
    pub fn ask_between(&self, t1: &[(&str, &str)], t2: &[(&str, &str)]) -> Result<AskResult> {
        self.ask(&UserQuestion::two_point(t1, t2))
    }

    /// Runs (or fetches) the session's prepared stages and returns the
    /// query's answer relation. Used by the serve protocol's `query` op:
    /// previewing the output tuples warms the provenance cache, so the
    /// session's first `ask` already skips preparation.
    pub fn preview(&self) -> Result<cajade_query::QueryResult> {
        let inner = self.service.upgrade().ok_or(ServiceError::ServiceDropped)?;
        let reg = inner.registered(&self.db_name)?;
        let (prepared, _) = self.prepare_cached(&inner, &reg)?;
        Ok(prepared.result.clone())
    }

    /// Provenance-cache get-or-compute for this session's `(db, query,
    /// enumeration params)` coordinates.
    ///
    /// Computation is **single-flighted**: two concurrent cold asks on the
    /// same coordinates serialize on a per-key latch, one computes
    /// provenance + enumeration, and the other receives the cached result
    /// (`provenance_cache.coalesced` counts the deduplicated work).
    fn prepare_cached(
        &self,
        inner: &ServiceInner,
        reg: &RegisteredDb,
    ) -> Result<(Arc<PreparedQuery>, bool)> {
        let prov_key = ProvKey {
            db: self.db_name.clone(),
            epoch: reg.epoch,
            sql: self.sql.clone(),
            prep_fingerprint: self.prep_fingerprint,
        };
        inner.prov_cache.get_or_try_compute(&prov_key, || {
            cajade_obs::faults::failpoint_infallible("cache.provenance_compute");
            // Attribute the retained prepared query (provenance table +
            // enumeration) to the cache holding it.
            let _mem = cajade_obs::AllocScope::enter("cache.provenance");
            let p = Arc::new(pipeline::prepare(
                &reg.db,
                &reg.schema_graph,
                &self.query,
                &self.params,
            )?);
            // Skip caching if the database was re-registered mid-compute:
            // a stale-epoch key would hold budget nothing can look up.
            let bytes = inner
                .epoch_is_current(&self.db_name, reg.epoch)
                .then(|| prepared_bytes(&p));
            Ok((p, bytes))
        })
    }
}

/// Runs `f` inside the request's collector scope with `parent` as the
/// enclosing span, under the request's budget, and inside the request
/// thread's alloc-scope chain. The parallel stages' closures execute on
/// rayon worker threads whose thread-local span, budget, and alloc-scope
/// state is empty; without this explicit re-entry their spans would
/// neither reach the collector nor parent correctly, their budget checks
/// would silently see "no budget", and their heap bytes would escape the
/// caller's memory attribution. A no-op passthrough when the ask is
/// untraced, unbudgeted, and unscoped.
fn in_scope<R>(
    collector: Option<&Arc<Collector>>,
    budget: Option<&cajade_obs::Budget>,
    mem: &cajade_obs::ScopeHandle,
    parent: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let scoped = || mem.install(f);
    let traced = || match collector {
        Some(c) => c.with(parent, scoped),
        None => scoped(),
    };
    match budget {
        Some(b) => b.install(traced),
        None => traced(),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

/// Cache accounting for an answered question: the ranked explanation list
/// plus the result preview table.
fn answer_bytes(r: &SessionResult) -> usize {
    r.explanations
        .iter()
        .map(|e| {
            e.pattern_desc.len()
                + e.primary.len()
                + e.graph_structure.len()
                + e.graph_edges.iter().map(String::len).sum::<usize>()
                + e.preds
                    .iter()
                    .map(|(a, b, c)| a.len() + b.len() + c.len())
                    .sum::<usize>()
                + 128
        })
        .sum::<usize>()
        + r.apt_stats
            .iter()
            .map(|(s, _, _)| s.len() + 32)
            .sum::<usize>()
        + (0..r.result.table.num_columns())
            .map(|c| r.result.table.column(c).approx_bytes())
            .sum::<usize>()
        + 512
}

/// Cache accounting for a prepared query: the provenance table dominates;
/// enumeration output and the query result are small but counted.
fn prepared_bytes(p: &PreparedQuery) -> usize {
    let graphs = p
        .graphs
        .iter()
        .map(|g| 64 + g.graph.nodes.len() * 32 + g.graph.edges.len() * 96)
        .sum::<usize>();
    p.pt.approx_bytes() + graphs + 256
}
