//! Rank-then-render identity: ranking unrendered mined patterns and
//! rendering only the survivors (`pipeline::rank_outcomes`) yields the
//! same list as rendering every pattern and ranking the rendered list
//! (`pipeline::rank`), and both equal the reference below — a full
//! sort on (F desc, |preds| asc, pattern text asc), a first-seen
//! near-duplicate filter, and a truncation to k.

use std::cell::Cell;
use std::collections::HashSet;
use std::time::Duration;

use cajade_core::pipeline::{self, GraphOutcome};
use cajade_core::{Explanation, Params};
use cajade_graph::{Apt, AptField, JgEdge, JgNode, JoinCond, JoinGraph, NodeLabel};
use cajade_mining::{
    MinedExplanation, MiningTimings, PatValue, Pattern, PatternMetrics, Pred, PredOp,
};
use cajade_storage::{AttrKind, DataType, StringPool};
use proptest::prelude::*;

/// Field names shared across graphs, so near-duplicates meet across
/// join graphs as they do in real sessions.
const NAMES: [&str; 4] = ["player.pts", "team.name", "prov_game.home", "season.year"];

/// F-scores drawn from a small set so ties on (F, |preds|) are common;
/// includes a NaN and both zeros.
const FS: [f64; 6] = [1.0, 0.5, 0.5, 0.0, -0.0, f64::NAN];

/// `(field slot, op, value)` per predicate.
type PredSpec = (usize, u8, u8);
/// `(preds, F choice, primary group, tp)` per mined pattern.
type MinedSpec = (Vec<PredSpec>, usize, usize, usize);
/// `(graph shape, field names, mined patterns)` per join graph.
type GraphSpec = (u8, Vec<usize>, Vec<MinedSpec>);

fn graph_of(shape: u8) -> JoinGraph {
    if shape == 0 {
        return JoinGraph::pt_only();
    }
    JoinGraph {
        nodes: vec![
            JgNode {
                label: NodeLabel::Pt,
            },
            JgNode {
                label: NodeLabel::Rel("player".into()),
            },
        ],
        edges: vec![JgEdge {
            from: 0,
            to: 1,
            cond: JoinCond::on(&[("player_id", "player_id")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: Some(0),
        }],
    }
}

fn field(name: &str) -> AptField {
    AptField {
        name: name.to_string(),
        dtype: DataType::Int,
        kind: AttrKind::Numeric,
        is_group_by: false,
        from_pt: true,
        node: 0,
        base_column: name.to_string(),
    }
}

fn mined_of(spec: &MinedSpec, num_fields: usize, pool: &mut StringPool) -> MinedExplanation {
    let (preds, f, primary, tp) = spec;
    let preds = preds
        .iter()
        .map(|&(slot, op, value)| {
            let op = [PredOp::Eq, PredOp::Le, PredOp::Ge][op as usize];
            let value = match value {
                0..=2 => PatValue::Int(value as i64),
                v => PatValue::Str(pool.intern(&format!("s{v}")).0),
            };
            (slot % num_fields, Pred { op, value })
        })
        .collect();
    MinedExplanation {
        pattern: Pattern::from_preds(preds),
        primary_group: *primary,
        secondary_group: None,
        metrics: PatternMetrics {
            tp: *tp,
            a1: 3,
            fp: 0,
            a2: 3,
            precision: 1.0,
            recall: 1.0,
            f_score: FS[*f],
        },
        sampled_f_score: 0.0,
    }
}

/// The ranking as specified: one full comparator sort, then collapse,
/// then truncation.
fn reference(mut all: Vec<Explanation>, k: usize, collapse: bool) -> Vec<Explanation> {
    all.sort_by(|a, b| {
        b.metrics
            .f_score
            .total_cmp(&a.metrics.f_score)
            .then(a.preds.len().cmp(&b.preds.len()))
            .then(a.pattern_desc.cmp(&b.pattern_desc))
    });
    if collapse {
        let mut seen = HashSet::new();
        all.retain(|e| seen.insert(e.near_duplicate_key()));
    }
    all.truncate(k);
    all
}

fn debug_all(list: &[Explanation]) -> Vec<String> {
    list.iter().map(|e| format!("{e:?}")).collect()
}

fn label(group: usize) -> String {
    format!("season_name=20{group}")
}

fn pred_spec() -> impl Strategy<Value = PredSpec> {
    (0usize..4, 0u8..3, 0u8..5)
}

fn mined_spec() -> impl Strategy<Value = MinedSpec> {
    (
        proptest::collection::vec(pred_spec(), 0..3),
        0usize..FS.len(),
        0usize..2,
        0usize..3,
    )
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        0u8..2,
        proptest::collection::vec(0usize..NAMES.len(), 1..4),
        proptest::collection::vec(mined_spec(), 0..7),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn rank_then_render_equals_render_then_rank(
        graphs in proptest::collection::vec(graph_spec(), 1..5),
        k in prop_oneof![Just(0usize), 0usize..12, Just(usize::MAX)],
        collapse in any::<bool>(),
    ) {
        let mut pool = StringPool::new();
        let mut apts = Vec::new();
        let mut outcomes = Vec::new();
        for (gi, (shape, names, mined)) in graphs.iter().enumerate() {
            let graph = graph_of(*shape);
            let fields: Vec<AptField> = names.iter().map(|&n| field(NAMES[n])).collect();
            let mined: Vec<MinedExplanation> = mined
                .iter()
                .map(|m| mined_of(m, fields.len(), &mut pool))
                .collect();
            outcomes.push(GraphOutcome {
                graph_index: gi * 3,
                mined,
                field_names: fields.iter().map(|f| f.name.clone()).collect(),
                graph: graph.clone(),
                apt_stat: (graph.structure_string(), 0, fields.len()),
                materialize: Duration::ZERO,
                mining: MiningTimings::default(),
                patterns: 0,
            });
            apts.push(Apt { fields, columns: Vec::new(), num_rows: 0, pt_row: Vec::new(), graph });
        }

        let rendered: Vec<Explanation> = outcomes
            .iter()
            .zip(&apts)
            .flat_map(|(o, apt)| {
                let pool = &pool;
                o.mined.iter().map(move |m| {
                    Explanation::from_mined(m, apt, pool, label(m.primary_group), o.graph_index)
                })
            })
            .collect();
        let mut params = Params::fast();
        params.top_k_global = k;
        params.collapse_near_duplicates = collapse;

        let expected = debug_all(&reference(rendered.clone(), k, collapse));
        prop_assert_eq!(debug_all(&pipeline::rank(rendered, &params)), expected.clone());

        let label_calls = Cell::new(0usize);
        let ranked = pipeline::rank_outcomes(
            &outcomes,
            &pool,
            |g| {
                label_calls.set(label_calls.get() + 1);
                label(g)
            },
            &params,
        );
        prop_assert_eq!(debug_all(&ranked), expected);
        // Group labels are memoised: one call per distinct primary group.
        prop_assert!(label_calls.get() <= 2, "{} label calls", label_calls.get());
    }
}

#[test]
fn ties_on_score_and_length_break_by_pattern_text() {
    let mut pool = StringPool::new();
    let graph = JoinGraph::pt_only();
    let fields = [field("b.x"), field("a.x")];
    // Same F and |preds|, distinct attributes: only the text orders them,
    // and "a.x…" sorts before "b.x…" although it arrives second.
    let mined = vec![
        mined_of(&(vec![(0, 0, 1)], 1, 0, 1), 2, &mut pool),
        mined_of(&(vec![(1, 0, 1)], 1, 0, 1), 2, &mut pool),
    ];
    let outcome = GraphOutcome {
        graph_index: 0,
        mined,
        field_names: fields.iter().map(|f| f.name.clone()).collect(),
        graph: graph.clone(),
        apt_stat: (graph.structure_string(), 0, 2),
        materialize: Duration::ZERO,
        mining: MiningTimings::default(),
        patterns: 0,
    };
    let ranked = pipeline::rank_outcomes(&[outcome], &pool, label, &Params::fast());
    let descs: Vec<&str> = ranked.iter().map(|e| e.pattern_desc.as_str()).collect();
    assert_eq!(descs, ["a.x=1", "b.x=1"]);
}
