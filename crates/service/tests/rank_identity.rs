//! Rank-then-render identity on NBA 0.05 over the paper's Table-2
//! queries: the service's `ask` and the library's
//! `ExplanationSession::explain` return exactly the explanations (and the
//! per-graph APT statistics) obtained by rendering *every* mined pattern
//! and ranking the rendered list with `pipeline::rank`.

use std::sync::Arc;

use cajade_core::pipeline::{self, PreparedQuery};
use cajade_core::{Explanation, ExplanationSession, Params, SessionResult, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::GeneratedDb;
use cajade_graph::Apt;
use cajade_mining::{
    base_column_stats, mine_apt, mine_prepared, ColumnStats, ColumnStatsConfig,
    ColumnStatsProvider, MiningOutcome,
};
use cajade_query::{parse_sql, Query};
use cajade_service::{ExplanationService, ServiceConfig};
use cajade_storage::Database;

/// The five NBA workload queries of the paper's Table 2.
const TABLE2: [&str; 5] = [
    "SELECT AVG(points) AS avg_pts, s.season_name \
     FROM player p, player_game_stats pgs, game g, season s \
     WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
       AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
       AND p.player_name = 'Draymond Green' GROUP BY s.season_name",
    "SELECT AVG(assists) AS avg_ast, s.season_name \
     FROM team_game_stats tgs, game g, team t, season s \
     WHERE s.season_id = g.season_id AND tgs.game_date = g.game_date \
       AND tgs.home_id = g.home_id AND tgs.team_id = t.team_id \
       AND t.team = 'GSW' GROUP BY s.season_name",
    "SELECT AVG(points) AS avg_pts, s.season_name \
     FROM player p, player_game_stats pgs, game g, season s \
     WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
       AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
       AND p.player_name = 'LeBron James' GROUP BY s.season_name",
    "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name",
    "SELECT AVG(points) AS avg_pts, s.season_name \
     FROM player p, player_game_stats pgs, game g, season s \
     WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
       AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
       AND p.player_name = 'Jimmy Butler' GROUP BY s.season_name",
];

fn corpus() -> GeneratedDb {
    nba::generate(NbaConfig::scaled(0.05))
}

/// Base-table column statistics, as the service's shared cache serves
/// them.
struct BaseStats<'a> {
    db: &'a Database,
    cfg: ColumnStatsConfig,
}

impl ColumnStatsProvider for BaseStats<'_> {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        self.db.table(table).ok()?.schema().field_index(column)?;
        base_column_stats(self.db, table, column, &self.cfg).map(Arc::new)
    }
}

/// Renders every mined pattern of every valid graph, then ranks the
/// rendered list. `mine` mines one materialized APT.
fn render_all_then_rank(
    db: &Database,
    query: &Query,
    prepared: &PreparedQuery,
    params: &Params,
    mine: impl Fn(&Apt) -> MiningOutcome,
) -> (Vec<Explanation>, Vec<(String, usize, usize)>) {
    let mut all = Vec::new();
    let mut apt_stats = Vec::new();
    for gi in prepared.valid_graph_indices() {
        let apt = pipeline::materialize(db, &prepared.pt, &prepared.graphs[gi]).unwrap();
        for m in &mine(&apt).explanations {
            let primary = pipeline::group_label(db, query, &prepared.pt, m.primary_group);
            all.push(Explanation::from_mined(m, &apt, db.pool(), primary, gi));
        }
        apt_stats.push((apt.graph.structure_string(), apt.num_rows, apt.fields.len()));
    }
    (pipeline::rank(all, params), apt_stats)
}

fn debug_all(list: &[Explanation]) -> Vec<String> {
    list.iter().map(|e| format!("{e:?}")).collect()
}

fn assert_same(
    what: &str,
    got: &SessionResult,
    expected: &(Vec<Explanation>, Vec<(String, usize, usize)>),
) {
    assert!(!expected.0.is_empty(), "{what}: no explanations to compare");
    assert_eq!(
        debug_all(&got.explanations),
        debug_all(&expected.0),
        "{what}: explanations"
    );
    assert_eq!(got.apt_stats, expected.1, "{what}: apt_stats");
}

/// A two-point question over the result's last and first groups, and a
/// single-point question on the first group.
fn questions(db: &Database, prepared: &PreparedQuery) -> Vec<UserQuestion> {
    let table = &prepared.result.table;
    let col = table.schema().field_index("season_name").unwrap();
    let mut groups: Vec<String> = (0..table.num_rows())
        .map(|r| table.value(r, col).render(db.pool()))
        .collect();
    groups.sort();
    groups.dedup();
    assert!(groups.len() >= 2, "need two groups, got {groups:?}");
    let last = &groups[groups.len() - 1];
    vec![
        UserQuestion::two_point(&[("season_name", last)], &[("season_name", &groups[0])]),
        UserQuestion::single_point(&[("season_name", &groups[0])]),
    ]
}

#[test]
fn service_and_library_answers_equal_render_all_then_rank() {
    let gen = corpus();
    let params = Params::fast();
    let service = ExplanationService::new(ServiceConfig {
        params: params.clone(),
        ..ServiceConfig::default()
    });
    let served = corpus();
    service.register_database("nba", served.db, served.schema_graph);
    let library = ExplanationSession::new(&gen.db, &gen.schema_graph, params.clone());
    let stats = BaseStats {
        db: &gen.db,
        cfg: ColumnStatsConfig::from_params(&params.mining),
    };

    for sql in TABLE2 {
        let query = parse_sql(sql).unwrap();
        let prepared = pipeline::prepare(&gen.db, &gen.schema_graph, &query, &params).unwrap();
        let session = service.open_session("nba", sql).unwrap();
        for (qi, question) in questions(&gen.db, &prepared).iter().enumerate() {
            let what = format!("{sql} / question {qi}");
            let q = pipeline::resolve_question(&gen.db, &query, &prepared.pt, question).unwrap();

            let served = session.ask(question).unwrap();
            assert!(!served.answer_cache_hit);
            let expected = render_all_then_rank(&gen.db, &query, &prepared, &params, |apt| {
                let prep = pipeline::prepare_mining(apt, &prepared.pt, &params, &stats);
                mine_prepared(&prep, apt, &prepared.pt, &q, &params.mining)
            });
            assert_same(&format!("service: {what}"), &served.result, &expected);

            let explained = library.explain(&query, question).unwrap();
            let expected = render_all_then_rank(&gen.db, &query, &prepared, &params, |apt| {
                mine_apt(apt, &prepared.pt, &q, &params.mining)
            });
            assert_same(&format!("library: {what}"), &explained, &expected);
        }
    }
}
