//! Composable pipeline stages.
//!
//! The CaJaDE pipeline decomposes into five stages:
//!
//! ```text
//! provenance ──► enumerate ──► materialize ──► mine ──► rank
//! ```
//!
//! [`ExplanationSession::explain`](crate::ExplanationSession::explain)
//! chains them for the one-shot API; the `cajade-service` crate chains the
//! same stages around its provenance/APT caches so repeated questions on a
//! query skip straight to mining. Stage outputs that are expensive to
//! produce ([`ProvenanceTable`], [`Apt`]) travel behind `Arc` so a cache
//! can hand the same materialization to many concurrent sessions.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cajade_graph::{
    enumerate_join_graphs, Apt, EnumConfig, EnumeratedGraph, JoinGraph, SchemaGraph,
};
use cajade_mining::{
    mine_apt, mine_prepared, prepare_apt_with, MinedExplanation, MiningOutcome, MiningTimings,
    PreparedApt, Question,
};
pub use cajade_mining::{ColumnStatsProvider, NoSharedStats};
use cajade_query::{execute, ProvenanceTable, Query, QueryResult};
use cajade_storage::{Database, StringPool};
use rayon::prelude::*;

use crate::explanation::{near_duplicate_key, rank_and_collapse, rank_top_k, Explanation};
use crate::params::Params;
use crate::session::{SessionResult, UserQuestion};
use crate::timing::SessionTimings;
use crate::{CoreError, Result};

/// Output of the provenance + enumeration stages for one `(db, query)`
/// pair. Everything here is question-independent, which is what makes it
/// cacheable across an interactive session's successive questions.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The query's result (for display and question resolution).
    pub result: QueryResult,
    /// The why-provenance table `PT(Q, D)`.
    pub pt: Arc<ProvenanceTable>,
    /// All enumerated join graphs (valid and invalid).
    pub graphs: Arc<Vec<EnumeratedGraph>>,
    /// Wall-clock spent computing provenance.
    pub provenance_time: Duration,
    /// Wall-clock spent enumerating join graphs.
    pub jg_enum_time: Duration,
}

impl PreparedQuery {
    /// Indices (into `graphs`) of the valid join graphs, i.e. the ones
    /// worth materializing and mining.
    pub fn valid_graph_indices(&self) -> Vec<usize> {
        self.graphs
            .iter()
            .enumerate()
            .filter(|(_, g)| g.valid)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Stage 1+2: executes the query, computes why-provenance, and enumerates
/// join graphs (Algorithm 2).
pub fn prepare(
    db: &Database,
    schema_graph: &SchemaGraph,
    query: &Query,
    params: &Params,
) -> Result<PreparedQuery> {
    let result = execute(db, query)?;

    let t0 = Instant::now();
    let pt = {
        let _span = cajade_obs::span("provenance");
        let _mem = cajade_obs::AllocScope::enter("provenance");
        ProvenanceTable::compute(db, query)?
    };
    let provenance_time = t0.elapsed();

    let t0 = Instant::now();
    let enum_cfg = EnumConfig {
        max_edges: params.max_edges,
        max_cost: params.max_cost,
        check_pk_coverage: params.check_pk_coverage,
        include_pt_only: params.include_pt_only,
    };
    let graphs = {
        let _span = cajade_obs::span("jg_enum");
        let _mem = cajade_obs::AllocScope::enter("jg_enum");
        enumerate_join_graphs(schema_graph, db, query, pt.num_rows, &enum_cfg)?
    };
    let jg_enum_time = t0.elapsed();

    Ok(PreparedQuery {
        result,
        pt: Arc::new(pt),
        graphs: Arc::new(graphs),
        provenance_time,
        jg_enum_time,
    })
}

/// Resolves a [`UserQuestion`] (group-by column/value pairs) to the
/// group-index form the miner consumes.
pub fn resolve_question(
    db: &Database,
    query: &Query,
    pt: &ProvenanceTable,
    question: &UserQuestion,
) -> Result<Question> {
    let resolve = |spec: &[(String, String)]| -> Result<usize> {
        let pairs: Vec<(&str, &str)> = spec.iter().map(|(c, v)| (c.as_str(), v.as_str())).collect();
        pt.find_group(db, query, &pairs).ok_or_else(|| {
            CoreError::NoSuchOutputTuple(
                pairs
                    .iter()
                    .map(|(c, v)| format!("{c}={v}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        })
    };
    Ok(match question {
        UserQuestion::TwoPoint { t1, t2 } => Question::TwoPoint {
            t1: resolve(t1)?,
            t2: resolve(t2)?,
        },
        UserQuestion::SinglePoint { t } => Question::SinglePoint { t: resolve(t)? },
    })
}

/// Rendered group label (`col=value, …`) for explanation output.
pub fn group_label(db: &Database, query: &Query, pt: &ProvenanceTable, group: usize) -> String {
    query
        .group_by
        .iter()
        .zip(&pt.group_keys[group])
        .map(|(col, v)| format!("{}={}", col.column, v.render(db.pool())))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Stage 3: materializes `APT(Q, D, Ω)` for one join graph (Definition 4).
pub fn materialize(db: &Database, pt: &ProvenanceTable, graph: &EnumeratedGraph) -> Result<Apt> {
    let _span = cajade_obs::span("materialize_apt");
    let _mem = cajade_obs::AllocScope::enter("materialize");
    Ok(Apt::materialize(db, pt, &graph.graph)?)
}

/// Stage 3.5: the question-independent mining preparation of one APT
/// (feature selection, LCA candidate pool, fragment boundaries, scoring
/// index and predicate bitmaps — see [`cajade_mining::prepare_apt_with`]).
///
/// `stats` supplies shareable per-column statistics: the service passes
/// its database-scoped column-stats cache so a question over many join
/// graphs analyzes each context column once; one-shot callers pass
/// [`NoSharedStats`] and compute everything per APT.
pub fn prepare_mining(
    apt: &Apt,
    pt: &ProvenanceTable,
    params: &Params,
    stats: &dyn ColumnStatsProvider,
) -> PreparedApt {
    let _span = cajade_obs::span("prepare_apt");
    let _mem = cajade_obs::AllocScope::enter("prepare");
    prepare_apt_with(apt, pt, &params.mining, stats)
}

/// Everything one mined join graph contributes to the session result.
///
/// The mined patterns stay unrendered: stage 5 ([`rank_outcomes`])
/// renders only the explanations that survive the global top-k. The
/// outcome keeps just what that rendering reads of the APT — field
/// names and the join graph — never its gathered columns.
#[derive(Debug)]
pub struct GraphOutcome {
    /// Index of the join graph within the session's enumeration.
    pub graph_index: usize,
    /// The graph's mined patterns, in diversity-selection order.
    pub mined: Vec<MinedExplanation>,
    /// Display names of the APT fields that `mined` references, indexed
    /// like `Apt::fields`; the other slots are empty.
    pub field_names: Vec<String>,
    /// The APT's join graph.
    pub graph: JoinGraph,
    /// `(structure, APT rows, APT attributes)` — the Fig. 10a statistics.
    pub apt_stat: (String, usize, usize),
    /// Wall-clock spent materializing this graph's APT (zero on a cache
    /// hit in the service path).
    pub materialize: Duration,
    /// Mining-phase timings.
    pub mining: MiningTimings,
    /// Patterns evaluated while mining this APT.
    pub patterns: usize,
}

impl GraphOutcome {
    fn new(
        apt: &Apt,
        outcome: MiningOutcome,
        graph_index: usize,
        materialize: Duration,
    ) -> GraphOutcome {
        let mut field_names = vec![String::new(); apt.fields.len()];
        for m in &outcome.explanations {
            for (f, _) in m.pattern.preds() {
                if field_names[*f].is_empty() {
                    field_names[*f] = apt.fields[*f].name.clone();
                }
            }
        }
        GraphOutcome {
            graph_index,
            mined: outcome.explanations,
            field_names,
            graph: apt.graph.clone(),
            apt_stat: (apt.graph.structure_string(), apt.num_rows, apt.fields.len()),
            materialize,
            mining: outcome.timings,
            patterns: outcome.patterns_evaluated,
        }
    }
}

/// Stage 4: mines one materialized APT (Algorithm 1). `graph_index` is
/// the graph's index within the session's enumeration;
/// `materialize_time` is attributed to this outcome for the Fig. 10
/// style breakdown.
pub fn mine_one(
    pt: &ProvenanceTable,
    apt: &Apt,
    question: &Question,
    params: &Params,
    graph_index: usize,
    materialize_time: Duration,
) -> GraphOutcome {
    let _span = cajade_obs::span("mine_apt");
    let _mem = cajade_obs::AllocScope::enter("mine");
    let outcome = mine_apt(apt, pt, question, &params.mining);
    GraphOutcome::new(apt, outcome, graph_index, materialize_time)
}

/// Stage 4, interactive variant: mines one APT through its cached
/// question-independent preparation ([`cajade_mining::prepare_apt`]).
/// When `prep_computed` is set, the preparation ran as part of this ask
/// and its phase timings are attributed to the outcome; on a warm
/// [`PreparedApt`] the feature-selection / candidate-generation /
/// sampling / prepare phases report zero — the ask skipped them.
// The argument list mirrors the stage's actual data dependencies; a
// context struct would only relocate the same eight names.
#[allow(clippy::too_many_arguments)]
pub fn mine_one_prepared(
    pt: &ProvenanceTable,
    apt: &Apt,
    prep: &PreparedApt,
    question: &Question,
    params: &Params,
    graph_index: usize,
    materialize_time: Duration,
    prep_computed: bool,
) -> GraphOutcome {
    let _span = cajade_obs::span("mine_apt");
    let _mem = cajade_obs::AllocScope::enter("mine");
    let mut outcome = mine_prepared(prep, apt, pt, question, &params.mining);
    if prep_computed {
        outcome.timings.accumulate(&prep.prep_timings);
    }
    GraphOutcome::new(apt, outcome, graph_index, materialize_time)
}

/// Stage 3+4 over all valid graphs: materialize then mine each one, on
/// worker threads when `params.parallel` is set. Outcomes come back in
/// graph order, so parallel and sequential runs produce identical results.
pub fn materialize_and_mine(
    db: &Database,
    prepared: &PreparedQuery,
    question: &Question,
    params: &Params,
) -> Result<Vec<GraphOutcome>> {
    let valid = prepared.valid_graph_indices();
    // A single APT's materialization is not truncatable, so the budget
    // boundary sits between graphs: once the deadline passes, remaining
    // whole graphs are skipped and the ask answers from the graphs mined
    // so far. `Ok(None)` marks a skipped graph.
    let run_one = |graph_index: usize| -> Result<Option<GraphOutcome>> {
        if cajade_obs::budget::stop("materialize") {
            return Ok(None);
        }
        let eg = &prepared.graphs[graph_index];
        let t0 = Instant::now();
        let apt = materialize(db, &prepared.pt, eg)?;
        let materialize_time = t0.elapsed();
        Ok(Some(mine_one(
            &prepared.pt,
            &apt,
            question,
            params,
            graph_index,
            materialize_time,
        )))
    };
    let outcomes: Vec<Option<GraphOutcome>> = if params.parallel && valid.len() > 1 {
        // The rayon pool's worker threads don't inherit the caller's
        // thread-local budget or alloc-scope chain; re-install both
        // inside each closure (the same hop trace collectors make in
        // the service layer).
        let budget = cajade_obs::budget::current();
        let mem_scope = cajade_obs::alloc::current_scope();
        valid
            .par_iter()
            .map(|&i| {
                mem_scope.install(|| match &budget {
                    Some(b) => b.install(|| run_one(i)),
                    None => run_one(i),
                })
            })
            .collect::<Result<_>>()?
    } else {
        valid.into_iter().map(run_one).collect::<Result<_>>()?
    };
    Ok(outcomes.into_iter().flatten().collect())
}

/// Stage 5 over rendered explanations: global F-score ranking +
/// near-duplicate collapse (§6).
pub fn rank(all: Vec<Explanation>, params: &Params) -> Vec<Explanation> {
    let _span = cajade_obs::span("rank");
    let _mem = cajade_obs::AllocScope::enter("rank");
    rank_and_collapse(all, params.top_k_global, params.collapse_near_duplicates)
}

/// Stage 5 over mined outcomes: ranks every mined pattern exactly as
/// [`rank`] ranks their rendered explanations, but renders only the
/// `params.top_k_global` survivors. Pattern text is rendered only to
/// break ties on (F-score, `|preds|`); `label` (see [`group_label`]) is
/// called once per distinct primary group the ranking reaches.
pub fn rank_outcomes(
    outcomes: &[GraphOutcome],
    pool: &StringPool,
    label: impl Fn(usize) -> String,
    params: &Params,
) -> Vec<Explanation> {
    let _span = cajade_obs::span("rank");
    let _mem = cajade_obs::AllocScope::enter("rank");
    let candidates: Vec<(&GraphOutcome, &MinedExplanation)> = outcomes
        .iter()
        .flat_map(|o| o.mined.iter().map(move |m| (o, m)))
        .collect();
    let keys: Vec<(f64, usize)> = candidates
        .iter()
        .map(|(_, m)| (m.metrics.f_score, m.pattern.len()))
        .collect();
    let mut labels: HashMap<usize, String> = HashMap::new();
    let kept = rank_top_k(
        &keys,
        |c| {
            let (o, m) = candidates[c];
            Cow::Owned(m.pattern.render_with(|f| &o.field_names[f], pool))
        },
        |c| {
            let (o, m) = candidates[c];
            let primary = labels
                .entry(m.primary_group)
                .or_insert_with(|| label(m.primary_group));
            near_duplicate_key(
                primary,
                m.pattern
                    .preds()
                    .iter()
                    .map(|(f, p)| (o.field_names[*f].as_str(), p.op.symbol())),
            )
        },
        params.top_k_global,
        params.collapse_near_duplicates,
    );
    kept.into_iter()
        .map(|c| {
            let (o, m) = candidates[c];
            let primary = labels
                .entry(m.primary_group)
                .or_insert_with(|| label(m.primary_group))
                .clone();
            Explanation::from_parts(
                m,
                |f| &o.field_names[f],
                &o.graph,
                pool,
                primary,
                o.graph_index,
            )
        })
        .collect()
}

/// Assembles per-graph outcomes into a [`SessionResult`], accumulating
/// timings and applying the ranking stage.
pub fn assemble(
    db: &Database,
    query: &Query,
    prepared: &PreparedQuery,
    outcomes: Vec<GraphOutcome>,
    params: &Params,
) -> SessionResult {
    let explanations = rank_outcomes(
        &outcomes,
        db.pool(),
        |g| group_label(db, query, &prepared.pt, g),
        params,
    );
    let mut timings = SessionTimings {
        provenance: prepared.provenance_time,
        jg_enum: prepared.jg_enum_time,
        ..Default::default()
    };
    let num_graphs_mined = outcomes.len();
    let mut apt_stats = Vec::new();
    let mut patterns_evaluated = 0usize;
    for o in outcomes {
        timings.materialize_apts += o.materialize;
        timings.mining.accumulate(&o.mining);
        apt_stats.push(o.apt_stat);
        patterns_evaluated += o.patterns;
    }
    // When a budget is installed (and still is at assembly — the service
    // calls `assemble` inside the budget scope), surface what truncated.
    let truncated: Vec<String> = cajade_obs::budget::current()
        .map(|b| b.truncated().into_iter().map(str::to_string).collect())
        .unwrap_or_default();
    SessionResult {
        explanations,
        timings,
        num_graphs_enumerated: prepared.graphs.len(),
        num_graphs_mined,
        pt_rows: prepared.pt.num_rows,
        result: prepared.result.clone(),
        apt_stats,
        patterns_evaluated,
        degraded: !truncated.is_empty(),
        truncated,
    }
}
