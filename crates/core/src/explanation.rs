//! Session-level explanations: a mined pattern rendered together with its
//! join graph and supports (the full Definition-6 tuple), plus the
//! near-duplicate collapsing of §6 ("the same pattern may be returned for
//! several join graphs … we removed duplicates and explanations that only
//! differ slightly in terms of constants").

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;

use cajade_graph::{Apt, JoinGraph};
use cajade_mining::{MinedExplanation, PatternMetrics};
use cajade_storage::StringPool;

/// One explanation of the final, globally-ranked list.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Rendered pattern, e.g. `player_salary.salary≤15330435 [t1]`.
    pub pattern_desc: String,
    /// Structured predicates: `(attribute, operator, constant)`.
    pub preds: Vec<(String, String, String)>,
    /// Join-graph structure, e.g. `PT - player_salary - player`.
    pub graph_structure: String,
    /// Rendered join conditions per edge.
    pub graph_edges: Vec<String>,
    /// Rendered group key of the primary output tuple.
    pub primary: String,
    /// Exact Definition-7 metrics (support = `(tp/a1 vs fp/a2)`).
    pub metrics: PatternMetrics,
    /// True if mined from the PT-only graph (provenance-only pattern).
    pub from_pt_only: bool,
    /// Index of the join graph within the session's enumeration.
    pub graph_index: usize,
}

impl Explanation {
    /// Builds a rendered explanation from a mined pattern.
    pub fn from_mined(
        mined: &MinedExplanation,
        apt: &Apt,
        pool: &StringPool,
        primary: String,
        graph_index: usize,
    ) -> Explanation {
        Explanation::from_parts(
            mined,
            |f| &apt.fields[f].name,
            &apt.graph,
            pool,
            primary,
            graph_index,
        )
    }

    /// [`from_mined`](Explanation::from_mined) from the two things
    /// rendering reads of an APT: its field display names (`name`,
    /// indexed like `Apt::fields`) and its join graph.
    pub(crate) fn from_parts<'a>(
        mined: &MinedExplanation,
        name: impl Fn(usize) -> &'a str,
        graph: &JoinGraph,
        pool: &StringPool,
        primary: String,
        graph_index: usize,
    ) -> Explanation {
        let preds = mined
            .pattern
            .preds()
            .iter()
            .map(|(f, p)| {
                (
                    name(*f).to_string(),
                    p.op.symbol().to_string(),
                    p.value.to_value().render(pool),
                )
            })
            .collect();
        Explanation {
            pattern_desc: mined.pattern.render_with(&name, pool),
            preds,
            graph_structure: graph.structure_string(),
            graph_edges: graph.describe_edges(),
            primary,
            metrics: mined.metrics,
            from_pt_only: graph.num_edges() == 0,
            graph_index,
        }
    }

    /// Collapse key: primary tuple + attribute/operator multiset. Two
    /// explanations with the same key differ only in constants or join
    /// path — the §6 near-duplicate criterion.
    pub fn near_duplicate_key(&self) -> String {
        near_duplicate_key(
            &self.primary,
            self.preds
                .iter()
                .map(|(a, op, _)| (a.as_str(), op.as_str())),
        )
    }

    /// One-line rendering in the Table-4 style.
    pub fn render_line(&self) -> String {
        format!(
            "{} [{}] {} F={:.2} ({})",
            self.pattern_desc,
            self.primary,
            self.metrics.support_string(),
            self.metrics.f_score,
            self.graph_structure,
        )
    }

    /// Narrative rendering in the style of the paper's introduction boxes:
    ///
    /// > *GSW won more games in season 2015-16 because Player S. Curry
    /// > scored ≥ 23 points in 58 out of 73 games in 2015-16 compared to
    /// > 21 out of 47 games in 2012-13.*
    ///
    /// `subject` names the query result in the user's words (e.g. "GSW's
    /// wins" / "admissions with this insurance"); the rest is filled from
    /// the pattern and its supports.
    pub fn narrate(&self, subject: &str) -> String {
        let conditions = if self.preds.is_empty() {
            "the context held".to_string()
        } else {
            self.preds
                .iter()
                .map(|(attr, op, value)| format!("{attr} {op} {value}"))
                .collect::<Vec<_>>()
                .join(" and ")
        };
        let via = if self.from_pt_only {
            String::new()
        } else {
            format!(" (context joined via {})", self.graph_structure)
        };
        format!(
            "{subject} differ for {} because {conditions} in {} out of {} of its \
             provenance rows, compared to {} out of {} for the other side{via}.",
            self.primary, self.metrics.tp, self.metrics.a1, self.metrics.fp, self.metrics.a2,
        )
    }
}

/// The §6 near-duplicate key of an explanation for `primary` whose
/// predicates have these `(attribute, operator)` pairs.
pub(crate) fn near_duplicate_key<'a>(
    primary: &str,
    preds: impl Iterator<Item = (&'a str, &'a str)>,
) -> String {
    let mut parts: Vec<String> = preds.map(|(a, op)| format!("{a}{op}")).collect();
    parts.sort();
    format!("{}|{}", primary, parts.join(","))
}

/// Sorts by exact F-score (descending) and drops near-duplicates, keeping
/// the best-scoring representative of each key. Returns at most `k`.
pub fn rank_and_collapse(all: Vec<Explanation>, k: usize, collapse: bool) -> Vec<Explanation> {
    let keys: Vec<(f64, usize)> = all
        .iter()
        .map(|e| (e.metrics.f_score, e.preds.len()))
        .collect();
    let kept = rank_top_k(
        &keys,
        |i| Cow::Borrowed(all[i].pattern_desc.as_str()),
        |i| all[i].near_duplicate_key(),
        k,
        collapse,
    );
    let mut slots: Vec<Option<Explanation>> = all.into_iter().map(Some).collect();
    kept.into_iter().filter_map(|i| slots[i].take()).collect()
}

/// The global rank order on `(F-score, |preds|)`: exact F-score
/// descending, then the simpler pattern first.
fn rank_order(a: (f64, usize), b: (f64, usize)) -> Ordering {
    // `total_cmp`: a NaN F-score (degenerate metrics) compared Equal
    // to everything under `partial_cmp(..).unwrap_or(Equal)`, letting
    // the global ranking depend on per-graph arrival order.
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The ranking routine behind both [`rank_and_collapse`] and
/// [`crate::pipeline::rank_outcomes`]. `keys[i]` is candidate `i`'s
/// `(F-score, |preds|)`. Candidates are sorted stably by [`rank_order`];
/// candidates that tie on both keys are ordered by `pattern_desc`, which
/// is asked for only inside such ties. The sorted list is then walked,
/// dropping a candidate whose `dup_key` was already kept (when
/// `collapse`), until `k` are kept. Returns the kept candidates' indices
/// in rank order.
pub(crate) fn rank_top_k<'a>(
    keys: &[(f64, usize)],
    mut pattern_desc: impl FnMut(usize) -> Cow<'a, str>,
    mut dup_key: impl FnMut(usize) -> String,
    k: usize,
    collapse: bool,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| rank_order(keys[a], keys[b]));
    let mut kept = Vec::with_capacity(k.min(order.len()));
    let mut seen = HashSet::new();
    let mut start = 0;
    while start < order.len() && kept.len() < k {
        let head = keys[order[start]];
        let len = order[start..]
            .iter()
            .take_while(|&&c| rank_order(keys[c], head).is_eq())
            .count();
        let run = &mut order[start..start + len];
        if len > 1 {
            // A stable sort: equal descriptions keep arrival order.
            let mut by_desc: Vec<(Cow<'a, str>, usize)> =
                run.iter().map(|&c| (pattern_desc(c), c)).collect();
            by_desc.sort_by(|a, b| a.0.cmp(&b.0));
            for (slot, (_, c)) in run.iter_mut().zip(by_desc) {
                *slot = c;
            }
        }
        for &c in run.iter() {
            if kept.len() == k {
                break;
            }
            if !collapse || seen.insert(dup_key(c)) {
                kept.push(c);
            }
        }
        start += len;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(pattern: &str, preds: &[(&str, &str, &str)], f: f64, primary: &str) -> Explanation {
        Explanation {
            pattern_desc: pattern.into(),
            preds: preds
                .iter()
                .map(|(a, o, c)| (a.to_string(), o.to_string(), c.to_string()))
                .collect(),
            graph_structure: "PT".into(),
            graph_edges: vec![],
            primary: primary.into(),
            metrics: PatternMetrics {
                tp: 1,
                a1: 1,
                fp: 0,
                a2: 1,
                precision: 1.0,
                recall: 1.0,
                f_score: f,
            },
            from_pt_only: true,
            graph_index: 0,
        }
    }

    #[test]
    fn ranking_is_by_fscore() {
        let out = rank_and_collapse(
            vec![
                mk("a", &[("x", "=", "1")], 0.5, "t1"),
                mk("b", &[("y", "=", "1")], 0.9, "t1"),
            ],
            10,
            true,
        );
        assert_eq!(out[0].pattern_desc, "b");
    }

    #[test]
    fn near_duplicates_collapse_keeping_best() {
        let out = rank_and_collapse(
            vec![
                mk("salary≤100", &[("salary", "≤", "100")], 0.8, "t1"),
                mk("salary≤120", &[("salary", "≤", "120")], 0.9, "t1"),
                mk("salary≤100 for t2", &[("salary", "≤", "100")], 0.7, "t2"),
            ],
            10,
            true,
        );
        // The two t1 variants collapse (same attr+op), t2 survives.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pattern_desc, "salary≤120");
        assert!(out.iter().any(|e| e.primary == "t2"));
    }

    #[test]
    fn collapse_can_be_disabled() {
        let out = rank_and_collapse(
            vec![
                mk("a", &[("salary", "≤", "100")], 0.8, "t1"),
                mk("b", &[("salary", "≤", "120")], 0.9, "t1"),
            ],
            10,
            false,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn truncates_to_k() {
        let many: Vec<Explanation> = (0..30)
            .map(|i| mk(&format!("p{i}"), &[("x", "=", &i.to_string())], 0.5, "t1"))
            .collect();
        // Distinct constants on the same attr+op: they all share one key →
        // collapse keeps 1. Without collapse, k bounds the list.
        assert_eq!(rank_and_collapse(many.clone(), 5, false).len(), 5);
        assert_eq!(rank_and_collapse(many, 5, true).len(), 1);
    }

    #[test]
    fn render_line_contains_support_and_graph() {
        let e = mk("salary≤100", &[("salary", "≤", "100")], 0.75, "t1");
        let line = e.render_line();
        assert!(line.contains("(1/1 vs 0/1)"));
        assert!(line.contains("F=0.75"));
        assert!(line.contains("PT"));
    }

    #[test]
    fn narrate_reads_like_the_paper_boxes() {
        let mut e = mk(
            "player=S. Curry ∧ pts≥23",
            &[("player", "=", "S. Curry"), ("pts", "≥", "23")],
            0.9,
            "season=2015-16",
        );
        e.metrics.tp = 58;
        e.metrics.a1 = 73;
        e.metrics.fp = 21;
        e.metrics.a2 = 47;
        e.from_pt_only = false;
        e.graph_structure = "PT - player_game_scoring".into();
        let text = e.narrate("GSW's wins");
        assert!(text.contains("player = S. Curry and pts ≥ 23"));
        assert!(text.contains("58 out of 73"));
        assert!(text.contains("21 out of 47"));
        assert!(text.contains("context joined via PT - player_game_scoring"));
    }
}
