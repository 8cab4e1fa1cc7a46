//! The traced replay: every ask of the traced run is driven a second time
//! through the public stage functions, in the order `session.rs` runs
//! them, with benchmark-side spans around each layer call.
//!
//! The replay keeps its own caches, built from the service's public
//! `LruCache`, `AptEntry` and key types with the service's byte budgets
//! and insert/re-insert/sweep rules, so it reuses cached work exactly
//! where the service does. Its ranked list and cache outcome are checked
//! against the service's answer for the same op.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cajade_core::pipeline::{self, PreparedQuery};
use cajade_core::{Explanation, Params, UserQuestion};
use cajade_graph::{enumerate_join_graphs, EnumConfig};
use cajade_mining::{
    base_column_stats, mine_prepared, ColumnStats, ColumnStatsConfig, ColumnStatsProvider,
    MiningTimings, PreparedApt,
};
use cajade_query::{execute, ProvenanceTable, Query};
use cajade_service::cache::LruCache;
use cajade_service::json::Json;
use cajade_service::{
    AnswerKey, AptEntry, AptKey, ColStatsKey, ExplanationService, ProvKey, RegisteredDb,
    ServiceConfig,
};
use rayon::prelude::*;

use crate::spans::{Link, Tracer};

/// Work counters of one replayed ask (counts and bytes; times come from
/// the spans).
#[derive(Debug, Clone, Default)]
pub struct AskWork {
    /// The trace id of this ask's spans.
    pub trace: u64,
    /// Served from the replay's answer cache.
    pub answer_hit: bool,
    /// Provenance + enumeration served from cache.
    pub prov_hit: bool,
    /// Valid graphs whose APT came from cache.
    pub apt_hits: usize,
    /// Valid graphs whose APT was materialized.
    pub apt_misses: usize,
    /// Prepared states built.
    pub prep_misses: usize,
    /// Provenance-table rows (when computed).
    pub pt_rows: usize,
    /// Join graphs enumerated (when computed).
    pub graphs: usize,
    /// Valid join graphs among them (when computed).
    pub valid_graphs: usize,
    /// APT rows materialized.
    pub apt_rows: usize,
    /// `Apt::approx_bytes` of the APTs materialized.
    pub apt_bytes: usize,
    /// `PreparedApt::approx_bytes` of the preparations built.
    pub prepared_bytes: usize,
    /// Prepare-phase timings returned in `PreparedApt::prep_timings`.
    pub prep_timings: MiningTimings,
    /// Mining-phase timings returned by `mine_prepared`.
    pub mine_timings: MiningTimings,
    /// Patterns evaluated by `mine_prepared`.
    pub patterns_evaluated: usize,
    /// `base_column_stats` computations.
    pub column_stats_calls: u64,
    /// Explanations entering `rank_and_collapse`.
    pub rank_in: usize,
    /// Explanations it kept.
    pub rank_kept: usize,
    /// Fan-out stages: `(name, workers)`.
    pub fanout: Vec<(&'static str, usize)>,
    /// Heap watermark above the stage's starting live bytes, per layer.
    pub peak_bytes: Vec<(&'static str, u64)>,
    /// The ranked answer, rendered as the protocol renders it.
    pub answer: String,
}

/// Work of one replayed register op.
#[derive(Debug, Clone, Default)]
pub struct RegisterWork {
    /// The trace id of this op's spans.
    pub trace: u64,
    /// Rows ingested.
    pub rows: usize,
    /// Cache entries swept by the replay.
    pub invalidated: usize,
    /// Fingerprint the replay computed.
    pub fingerprint: u64,
    /// Heap watermark of the ingest call above its starting live bytes.
    pub peak_bytes: u64,
}

type AnswerValue = Arc<Vec<Explanation>>;

/// The replay's caches and parameters.
pub struct Replay<'t> {
    tracer: &'t Tracer,
    params: Params,
    prov: LruCache<ProvKey, Arc<PreparedQuery>>,
    apt: LruCache<AptKey, Arc<AptEntry>>,
    answers: LruCache<AnswerKey, AnswerValue>,
    colstats: LruCache<ColStatsKey, Arc<ColumnStats>>,
    epochs: HashMap<String, u64>,
}

impl<'t> Replay<'t> {
    /// A replay with the service's default budgets and parameters.
    pub fn new(tracer: &'t Tracer, config: &ServiceConfig) -> Self {
        Replay {
            tracer,
            params: config.params.clone(),
            prov: LruCache::new(config.prov_cache_bytes),
            apt: LruCache::new(config.apt_cache_bytes),
            answers: LruCache::new(config.answer_cache_bytes),
            colstats: LruCache::new(config.column_stats_cache_bytes),
            epochs: HashMap::new(),
        }
    }

    /// Evictions the replay's APT cache has made.
    pub fn apt_evictions(&self) -> u64 {
        self.apt.stats().evictions
    }

    /// Replays a `register` of `dir` as `db`: `ingest_dir`, then
    /// `Database::fingerprint`, then — when the service's epoch moved —
    /// the same stale-epoch sweep over the replay's caches.
    pub fn register(
        &mut self,
        service: &ExplanationService,
        db: &str,
        dir: &std::path::Path,
    ) -> Result<RegisterWork, String> {
        let root = self.tracer.root("replay.register");
        let mut work = RegisterWork {
            trace: root.trace(),
            ..RegisterWork::default()
        };
        let options = cajade_ingest::IngestOptions {
            name: Some(db.to_string()),
            ..Default::default()
        };
        let live0 = live_bytes();
        cajade_obs::alloc::reset_peak();
        let ingested = {
            let _s = self.tracer.span("ingest");
            cajade_ingest::ingest_dir(dir, &options).map_err(|e| e.to_string())?
        };
        work.peak_bytes = peak_above(live0);
        work.rows = ingested.report.total_rows();
        work.fingerprint = {
            let _s = self.tracer.span("storage.fingerprint");
            ingested.db.fingerprint()
        };
        drop(ingested);
        let reg = service
            .database(db)
            .ok_or_else(|| format!("database `{db}` not registered"))?;
        if reg.fingerprint != work.fingerprint {
            return Err(format!(
                "fingerprint mismatch: service {:016x}, replay {:016x}",
                reg.fingerprint, work.fingerprint
            ));
        }
        let previous = self.epochs.insert(db.to_string(), reg.epoch);
        if previous.is_some_and(|e| e != reg.epoch) {
            let epoch = reg.epoch;
            work.invalidated = self.prov.retain(|k| k.db != db || k.epoch == epoch)
                + self.apt.retain(|k| k.db != db || k.epoch == epoch)
                + self.answers.retain(|k| k.db != db || k.epoch == epoch)
                + self.colstats.retain(|k| k.db != db || k.epoch == epoch);
        }
        Ok(work)
    }

    /// Replays one ask on `(db, query)` against the service's current
    /// snapshot of `db`.
    pub fn ask(
        &self,
        reg: &RegisteredDb,
        query: &Query,
        question: &UserQuestion,
    ) -> Result<AskWork, String> {
        let tracer = self.tracer;
        let root = tracer.root("replay.ask");
        let mut work = AskWork {
            trace: root.trace(),
            ..AskWork::default()
        };
        let sql = query.to_sql();
        let params = &self.params;

        // Stage 0: the ranked answer may be cached.
        let answer_key = AnswerKey {
            db: reg.name.clone(),
            epoch: reg.epoch,
            sql: sql.clone(),
            params_fingerprint: fnv1a(format!("{params:?}").as_bytes()),
            question: AnswerKey::canonical_question(question),
        };
        if let Some(cached) = self.answers.get(&answer_key) {
            work.answer_hit = true;
            work.prov_hit = true;
            work.answer = render_explanations(&cached);
            return Ok(work);
        }

        // Stages 1+2: provenance + enumeration, cached.
        let prov_key = ProvKey {
            db: reg.name.clone(),
            epoch: reg.epoch,
            sql: sql.clone(),
            prep_fingerprint: 0,
        };
        let live0 = live_bytes();
        cajade_obs::alloc::reset_peak();
        let (prepared, prov_hit) = self.prov.get_or_try_compute(&prov_key, || {
            self.prepare(reg, query)
                .map(|p| (Arc::clone(&p), Some(prepared_bytes(&p))))
        })?;
        work.prov_hit = prov_hit;
        if !prov_hit {
            work.peak_bytes
                .push(("query.provenance", peak_above(live0)));
            work.pt_rows = prepared.pt.num_rows;
            work.graphs = prepared.graphs.len();
            work.valid_graphs = prepared.valid_graph_indices().len();
        }
        let mining_question = {
            let _s = tracer.span("core.resolve");
            pipeline::resolve_question(&reg.db, query, &prepared.pt, question)
                .map_err(|e| e.to_string())?
        };

        // Stage 3: APTs, cached per join graph.
        let valid = prepared.valid_graph_indices();
        type Ready = (usize, AptKey, Arc<AptEntry>, bool);
        let live0 = live_bytes();
        cajade_obs::alloc::reset_peak();
        let stage = tracer.span("stage.materialize");
        let link = stage.link();
        let resolve_one = |gi: usize| -> Result<Ready, String> {
            let key = AptKey {
                db: reg.name.clone(),
                epoch: reg.epoch,
                sql: sql.clone(),
                graph: prepared.graphs[gi].graph.key(),
            };
            let (entry, hit) = self.apt.get_or_try_compute(&key, || {
                let _s = tracer.child_of("graph.apt", link);
                let apt = pipeline::materialize(&reg.db, &prepared.pt, &prepared.graphs[gi])
                    .map_err(|e| e.to_string())?;
                let entry = AptEntry::new(Arc::new(apt));
                let bytes = entry.approx_bytes();
                Ok::<_, String>((entry, Some(bytes)))
            })?;
            Ok((gi, key, entry, hit))
        };
        let mut ready: Vec<Ready> = if params.parallel && valid.len() > 1 {
            valid
                .par_iter()
                .map(|&gi| resolve_one(gi))
                .collect::<Result<Vec<_>, String>>()?
        } else {
            valid
                .iter()
                .map(|&gi| resolve_one(gi))
                .collect::<Result<Vec<_>, String>>()?
        };
        ready.sort_by_key(|r| r.0);
        work.fanout
            .push(("materialize", workers(valid.len(), params.parallel)));
        drop(stage);
        work.peak_bytes.push(("graph.apt", peak_above(live0)));
        work.apt_hits = ready.iter().filter(|r| r.3).count();
        work.apt_misses = ready.len() - work.apt_hits;
        for (_, _, entry, hit) in &ready {
            if !hit {
                work.apt_rows += entry.apt.num_rows;
                work.apt_bytes += entry.apt.approx_bytes();
            }
        }

        // Stage 3.5: question-independent preparation, per cached entry.
        let mining_fp = fnv1a(format!("{:?}", params.mining).as_bytes());
        let stats_cfg = ColumnStatsConfig::from_params(&params.mining);
        let provider = ReplayColumnStats {
            cache: &self.colstats,
            reg,
            fingerprint: stats_cfg.fingerprint(),
            cfg: stats_cfg,
            tracer,
            calls: AtomicU64::new(0),
        };
        type Prepped = (usize, AptKey, Arc<AptEntry>, Arc<PreparedApt>, bool);
        let live0 = live_bytes();
        cajade_obs::alloc::reset_peak();
        let stage = tracer.span("stage.prepare");
        let link = stage.link();
        let prepare_one = |(gi, key, entry, _): &Ready| -> Prepped {
            let (prep, hit) = entry.prepared_for(mining_fp, || {
                let _s = tracer.child_of("mining.prepared", link);
                pipeline::prepare_mining(&entry.apt, &prepared.pt, params, &provider)
            });
            (*gi, key.clone(), Arc::clone(entry), prep, hit)
        };
        let prepped: Vec<Prepped> = if params.parallel && ready.len() > 1 {
            ready.par_iter().map(prepare_one).collect()
        } else {
            ready.iter().map(prepare_one).collect()
        };
        work.fanout
            .push(("prepare", workers(ready.len(), params.parallel)));
        for (_, key, entry, prep, hit) in &prepped {
            if *hit {
                continue;
            }
            work.prep_misses += 1;
            work.prepared_bytes += prep.approx_bytes();
            work.prep_timings.accumulate(&prep.prep_timings);
            if !self
                .apt
                .insert(key.clone(), Arc::clone(entry), entry.approx_bytes())
            {
                entry.clear_prepared();
            }
        }
        drop(stage);
        work.peak_bytes.push(("mining.prepared", peak_above(live0)));
        work.column_stats_calls = provider.calls.load(Ordering::Relaxed);

        // Stage 4: mining, then rendering each graph's explanations.
        let live0 = live_bytes();
        cajade_obs::alloc::reset_peak();
        let stage = tracer.span("stage.mine");
        let link = stage.link();
        let mine_one = |(gi, _, entry, prep, _): &Prepped| {
            mine_graph(
                tracer,
                link,
                reg,
                query,
                &prepared,
                &entry.apt,
                prep,
                &mining_question,
                params,
                *gi,
            )
        };
        let mined: Vec<Mined> = if params.parallel && prepped.len() > 1 {
            prepped.par_iter().map(mine_one).collect()
        } else {
            prepped.iter().map(mine_one).collect()
        };
        work.fanout
            .push(("mine", workers(prepped.len(), params.parallel)));
        drop(stage);
        work.peak_bytes.push(("mining.miner", peak_above(live0)));

        // Stage 5: rank.
        let mut all = Vec::new();
        let mut apt_stats = Vec::new();
        for m in mined {
            work.mine_timings.accumulate(&m.timings);
            work.patterns_evaluated += m.patterns;
            apt_stats.push(m.structure);
            all.extend(m.explanations);
        }
        work.rank_in = all.len();
        let ranked = {
            let _s = tracer.span("core.explanation.rank");
            // `pipeline::rank` is the public wrapper of `rank_and_collapse`
            // with the session's top-k and collapse settings.
            pipeline::rank(all, params)
        };
        work.rank_kept = ranked.len();
        work.answer = render_explanations(&ranked);
        let bytes = answer_bytes(&ranked, &apt_stats, &prepared);
        self.answers.insert(answer_key, Arc::new(ranked), bytes);
        drop(root);
        Ok(work)
    }

    /// Stage 1+2 for one query: execution, provenance, enumeration.
    fn prepare(&self, reg: &RegisteredDb, query: &Query) -> Result<Arc<PreparedQuery>, String> {
        let params = &self.params;
        let result = {
            let _s = self.tracer.span("query.execute");
            execute(&reg.db, query).map_err(|e| e.to_string())?
        };
        let t0 = std::time::Instant::now();
        let pt = {
            let _s = self.tracer.span("query.provenance");
            ProvenanceTable::compute(&reg.db, query).map_err(|e| e.to_string())?
        };
        let provenance_time = t0.elapsed();
        let t0 = std::time::Instant::now();
        let cfg = EnumConfig {
            max_edges: params.max_edges,
            max_cost: params.max_cost,
            check_pk_coverage: params.check_pk_coverage,
            include_pt_only: params.include_pt_only,
        };
        let graphs = {
            let _s = self.tracer.span("graph.enumerate");
            enumerate_join_graphs(&reg.schema_graph, &reg.db, query, pt.num_rows, &cfg)
                .map_err(|e| e.to_string())?
        };
        Ok(Arc::new(PreparedQuery {
            result,
            pt: Arc::new(pt),
            graphs: Arc::new(graphs),
            provenance_time,
            jg_enum_time: t0.elapsed(),
        }))
    }
}

/// One mined graph's contribution.
struct Mined {
    explanations: Vec<Explanation>,
    timings: MiningTimings,
    patterns: usize,
    structure: String,
}

#[allow(clippy::too_many_arguments)]
fn mine_graph(
    tracer: &Tracer,
    link: Link,
    reg: &RegisteredDb,
    query: &Query,
    prepared: &PreparedQuery,
    apt: &cajade_graph::Apt,
    prep: &PreparedApt,
    question: &cajade_mining::Question,
    params: &Params,
    graph_index: usize,
) -> Mined {
    let outcome = {
        let _s = tracer.child_of("mining.miner", link);
        mine_prepared(prep, apt, &prepared.pt, question, &params.mining)
    };
    let explanations = {
        let _s = tracer.child_of("core.explanation.from_mined", link);
        outcome
            .explanations
            .iter()
            .map(|m| {
                Explanation::from_mined(
                    m,
                    apt,
                    reg.db.pool(),
                    pipeline::group_label(&reg.db, query, &prepared.pt, m.primary_group),
                    graph_index,
                )
            })
            .collect()
    };
    Mined {
        explanations,
        timings: outcome.timings,
        patterns: outcome.patterns_evaluated,
        structure: apt.graph.structure_string(),
    }
}

/// The replay's column-statistics provider: `base_column_stats`
/// memoised in an epoch-keyed LRU, as the service's provider does.
struct ReplayColumnStats<'a> {
    cache: &'a LruCache<ColStatsKey, Arc<ColumnStats>>,
    reg: &'a RegisteredDb,
    cfg: ColumnStatsConfig,
    fingerprint: u64,
    tracer: &'a Tracer,
    calls: AtomicU64,
}

impl ColumnStatsProvider for ReplayColumnStats<'_> {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        let t = self.reg.db.table(table).ok()?;
        t.schema().field_index(column)?;
        let key = ColStatsKey {
            db: self.reg.name.clone(),
            epoch: self.reg.epoch,
            table: table.to_string(),
            column: column.to_string(),
            stats_fingerprint: self.fingerprint,
        };
        let computed = self.cache.get_or_try_compute(&key, || {
            let _s = self.tracer.span("mining.stats");
            self.calls.fetch_add(1, Ordering::Relaxed);
            let stats =
                Arc::new(base_column_stats(&self.reg.db, table, column, &self.cfg).ok_or(())?);
            let bytes = stats.approx_bytes() + key.approx_bytes();
            Ok::<_, ()>((stats, Some(bytes)))
        });
        computed.ok().map(|(stats, _)| stats)
    }
}

/// Renders a ranked list exactly as the `ask` response's
/// `explanations` array.
pub fn render_explanations(ranked: &[Explanation]) -> String {
    Json::Arr(
        ranked
            .iter()
            .map(|e| {
                Json::obj([
                    ("pattern", Json::str(e.pattern_desc.clone())),
                    (
                        "predicates",
                        Json::Arr(
                            e.preds
                                .iter()
                                .map(|(a, op, v)| {
                                    Json::Arr(vec![
                                        Json::str(a.clone()),
                                        Json::str(op.clone()),
                                        Json::str(v.clone()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("join_graph", Json::str(e.graph_structure.clone())),
                    (
                        "join_conditions",
                        Json::Arr(e.graph_edges.iter().map(|s| Json::str(s.clone())).collect()),
                    ),
                    ("primary", Json::str(e.primary.clone())),
                    ("f_score", Json::num(e.metrics.f_score)),
                    ("precision", Json::num(e.metrics.precision)),
                    ("recall", Json::num(e.metrics.recall)),
                    ("provenance_only", Json::Bool(e.from_pt_only)),
                ])
            })
            .collect(),
    )
    .render()
}

/// Worker threads a fan-out over `items` runs on.
fn workers(items: usize, parallel: bool) -> usize {
    if !parallel || items <= 1 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items)
        .max(1)
}

fn live_bytes() -> i64 {
    cajade_obs::alloc::heap_stats().map_or(0, |h| h.live_bytes)
}

/// Heap watermark above `live0` since the last `reset_peak`.
fn peak_above(live0: i64) -> u64 {
    cajade_obs::alloc::heap_stats().map_or(0, |h| (h.peak_live_bytes - live0).max(0) as u64)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

/// The service's byte accounting of a cached prepared query.
fn prepared_bytes(p: &PreparedQuery) -> usize {
    let graphs = p
        .graphs
        .iter()
        .map(|g| 64 + g.graph.nodes.len() * 32 + g.graph.edges.len() * 96)
        .sum::<usize>();
    p.pt.approx_bytes() + graphs + 256
}

/// The service's byte accounting of a cached answer.
fn answer_bytes(ranked: &[Explanation], structures: &[String], p: &PreparedQuery) -> usize {
    ranked
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
        + structures.iter().map(|s| s.len() + 32).sum::<usize>()
        + (0..p.result.table.num_columns())
            .map(|c| p.result.table.column(c).approx_bytes())
            .sum::<usize>()
        + 512
}
