//! Workload inputs: seeded corpora exported as CSV directories, and the
//! questions drawn from the groups present in each query's result. All
//! of this happens during set-up, outside every timed region.

use std::path::{Path, PathBuf};

use cajade_datagen::{nba, synth, GeneratedDb};
use cajade_query::{execute, parse_sql};

/// The five NBA workload queries of the paper's Table 2.
pub const NBA_QUERIES: [&str; 5] = [
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

/// NBA corpus scale (≈17 k rows, 11 tables).
pub const NBA_SCALE: f64 = 0.05;

/// Synthetic star corpus: fact rows, dimensions, numeric columns each.
pub const SYNTH_ROWS: usize = 20_000;
/// Dimension tables of the synthetic corpus.
pub const SYNTH_TABLES: usize = 6;
/// Numeric context columns per dimension table.
pub const SYNTH_COLUMNS: usize = 8;

/// Which generator a corpus comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// NBA at [`NBA_SCALE`].
    Nba,
    /// The synthetic star corpus with `SYNTH_SQL`.
    Synth,
}

impl Kind {
    /// The group-by column questions are asked over.
    pub fn group_column(self) -> &'static str {
        match self {
            Kind::Nba => "season_name",
            Kind::Synth => "grp",
        }
    }

    fn generate(self, seed: u64) -> GeneratedDb {
        match self {
            Kind::Nba => nba::generate(nba::NbaConfig {
                seed,
                ..nba::NbaConfig::scaled(NBA_SCALE)
            }),
            Kind::Synth => synth::generate(&synth::SynthConfig {
                seed,
                ..synth::SynthConfig::small()
                    .with_rows(SYNTH_ROWS)
                    .with_width(SYNTH_TABLES, SYNTH_COLUMNS)
            }),
        }
    }
}

/// One exported corpus and its questions.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The CSV directory the service registers.
    pub dir: PathBuf,
    /// Per query: every ordered pair of distinct groups in its result,
    /// in a seeded order.
    pub questions: Vec<Vec<(String, String)>>,
}

/// Generates the corpus for `seed`, exports it under `root`, and draws
/// the questions of each of `queries`.
pub fn build(kind: Kind, queries: &[&str], seed: u64, root: &Path) -> Result<Corpus, String> {
    let generated = kind.generate(seed);
    let dir = root.join(format!("{kind:?}-{seed}").to_lowercase());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    cajade_ingest::export_csv_dir(
        &generated.db,
        &generated.schema_graph,
        &dir,
        &cajade_ingest::ExportOptions::default(),
    )
    .map_err(|e| format!("export {}: {e}", dir.display()))?;
    let mut rng = SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut questions = Vec::new();
    for sql in queries {
        let query = parse_sql(sql).map_err(|e| e.to_string())?;
        let result = execute(&generated.db, &query).map_err(|e| e.to_string())?;
        let table = &result.table;
        let col = table
            .schema()
            .field_index(kind.group_column())
            .ok_or_else(|| format!("no `{}` in the result of {sql}", kind.group_column()))?;
        let mut groups: Vec<String> = (0..table.num_rows())
            .map(|r| table.value(r, col).render(generated.db.pool()))
            .collect();
        groups.sort();
        groups.dedup();
        let mut pairs = Vec::new();
        for a in &groups {
            for b in &groups {
                if a != b {
                    pairs.push((a.clone(), b.clone()));
                }
            }
        }
        if pairs.len() < 2 {
            return Err(format!("{sql}: fewer than two groups"));
        }
        rng.shuffle(&mut pairs);
        questions.push(pairs);
    }
    Ok(Corpus { dir, questions })
}

/// SplitMix64: a small seeded generator for op-stream choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}
