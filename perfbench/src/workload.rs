//! The three workloads and the closed-loop runner that drives them.
//!
//! One client sends one request line at a time and waits for its reply
//! (a closed loop, one client). Every reply is checked; a failed op is
//! counted and the run goes on.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use cajade_core::UserQuestion;
use cajade_query::{parse_sql, Query};
use cajade_service::json::Json;
use cajade_service::{ExplanationService, ServiceConfig};

use crate::corpus::{self, Corpus, Kind, SplitMix, NBA_QUERIES};
use crate::replay::{AskWork, RegisterWork, Replay};
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::wire::{self, Reply};

/// Registered database name of the re-registering workloads.
pub const DB: &str = "bench";

/// Share of follow-up asks that repeat an earlier question.
pub const REPEAT_SHARE: f64 = 0.1;

/// Largest share of an ask's join graphs whose APT-cache outcome may
/// differ between service and replay once the APT cache has evicted.
pub const EVICTION_ORDER_TOLERANCE: f64 = 0.1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm follow-up questions over four open NBA sessions.
    NbaFollowup,
    /// Re-registration rounds, each opening all five NBA queries cold.
    NbaColdstart,
    /// Re-registration rounds on a wide synthetic star corpus whose APTs
    /// outgrow the APT cache.
    SynthWide,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NbaFollowup,
        Workload::NbaColdstart,
        Workload::SynthWide,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NbaFollowup => "nba-followup",
            Workload::NbaColdstart => "nba-coldstart",
            Workload::SynthWide => "synth-wide",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn kind(self) -> Kind {
        match self {
            Workload::NbaFollowup | Workload::NbaColdstart => Kind::Nba,
            Workload::SynthWide => Kind::Synth,
        }
    }

    /// The workload's queries. The follow-up workload leaves out Q_nba2,
    /// the query with the most valid join graphs (655): with all five
    /// sessions warm, the APTs straddle the default 512 MiB APT-cache
    /// budget and about half the seeds evict on every warm ask, so the
    /// working set would no longer fit the caches.
    ///
    /// Each follow-up session queries a database of its own, generated
    /// from its own seed, so a run's warm-ask figures average over four
    /// corpora instead of hinging on one. The cached working set is the
    /// same as four sessions on one corpus.
    pub fn queries(self) -> Vec<&'static str> {
        match self {
            Workload::NbaFollowup => [0, 2, 3, 4].iter().map(|&i| NBA_QUERIES[i]).collect(),
            Workload::NbaColdstart => NBA_QUERIES.to_vec(),
            Workload::SynthWide => vec![cajade_datagen::synth::SYNTH_SQL],
        }
    }

    /// Follow-up (warm) asks per query in a re-registration round.
    fn follow_ups(self, questions: usize) -> usize {
        match self {
            Workload::NbaFollowup => 0,
            Workload::NbaColdstart => 3,
            Workload::SynthWide => questions - 1,
        }
    }

    /// Corpora generated per run: one per follow-up session, a pool
    /// cycled through by the re-registering workloads.
    fn corpora(self) -> usize {
        match self {
            Workload::NbaFollowup => self.queries().len(),
            Workload::NbaColdstart | Workload::SynthWide => 3,
        }
    }

    /// The database query `q` runs on.
    fn db(self, q: usize) -> String {
        match self {
            Workload::NbaFollowup => format!("{DB}{q}"),
            Workload::NbaColdstart | Workload::SynthWide => DB.to_string(),
        }
    }

    /// Set-ups per untraced run, each followed by an equal share of the
    /// timed seconds; `setup_s` reports their median. A warming set-up
    /// takes up to ≈8 s, so two fit the run's budget.
    fn setups(self) -> usize {
        2
    }

    /// Whether set-up warms every query with one cold ask. The follow-up
    /// workload must start warm; on the synthetic corpus it makes the
    /// first round, like every later one, re-register over a full epoch.
    /// The NBA cold-start rounds ask five queries cold each, so its
    /// set-up stays light and the run's time goes to whole rounds.
    fn warms_up(self) -> bool {
        !matches!(self, Workload::NbaColdstart)
    }
}

/// Op classes the latencies are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `register` of a CSV directory.
    Register,
    /// `query` (opens or reuses a session; no pipeline work).
    Query,
    /// First ask on a fresh (epoch, query) pair.
    Cold,
    /// First-time question on a query whose stages were built.
    Warm,
    /// A question asked before on the same epoch (answer-cache hit).
    Repeat,
    /// `stats`.
    Stats,
}

/// Whether an op ran during set-up or on the timed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Before the first timed op.
    Setup,
    /// Between the timed start and the deadline.
    Timed,
}

/// Everything the traced run records about one timed op.
#[derive(Debug, Clone)]
pub struct TracedOp {
    /// `Json::parse` of the request line, ms (the benchmark's own call).
    pub parse_ms: f64,
    /// `handle_line` wall, ms.
    pub handle_ms: f64,
    /// `render` wall, ms.
    pub render_ms: f64,
    /// Rendered response bytes.
    pub bytes: usize,
    /// The replayed ask, for asks.
    pub ask: Option<AskWork>,
    /// The replayed register, for registers.
    pub register: Option<RegisterWork>,
}

/// Cache counters from a `stats` reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// `(hits, misses, evictions, bytes)` per cache: answer, apt,
    /// provenance, column_stats.
    pub caches: [(u64, u64, u64, u64); 4],
    /// Prepared-state reuses.
    pub prepared_hits: u64,
    /// Prepared-state builds.
    pub prepared_misses: u64,
}

/// Cache names in [`CacheCounters::caches`] order.
pub const CACHES: [&str; 4] = ["answer", "apt", "provenance", "column_stats"];

impl CacheCounters {
    fn from_reply(j: &Json) -> Option<CacheCounters> {
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64);
        let mut c = CacheCounters::default();
        for (i, name) in CACHES.iter().enumerate() {
            let b = j.get(&format!("{name}_cache"))?;
            c.caches[i] = (
                num(b, "hits")?,
                num(b, "misses")?,
                num(b, "evictions")?,
                num(b, "bytes")?,
            );
        }
        c.prepared_hits = num(j, "prepared_apt_hits")?;
        c.prepared_misses = num(j, "prepared_apt_misses")?;
        Some(c)
    }

    /// Adds another segment's growth; resident bytes take the later
    /// segment's value.
    pub fn add(&mut self, other: &CacheCounters) {
        for (mine, theirs) in self.caches.iter_mut().zip(other.caches) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
            mine.2 += theirs.2;
            mine.3 = theirs.3;
        }
        self.prepared_hits += other.prepared_hits;
        self.prepared_misses += other.prepared_misses;
    }

    /// Counter growth from `earlier` to `self` (bytes keep `self`'s
    /// resident value).
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        let mut d = *self;
        for (now, then) in d.caches.iter_mut().zip(earlier.caches) {
            now.0 -= then.0.min(now.0);
            now.1 -= then.1.min(now.1);
            now.2 -= then.2.min(now.2);
        }
        d.prepared_hits -= earlier.prepared_hits.min(d.prepared_hits);
        d.prepared_misses -= earlier.prepared_misses.min(d.prepared_misses);
        d
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency samples, ms, per (phase, class).
    pub samples: HashMap<(Phase, Class), Samples>,
    /// Ops attempted (set-up and timed).
    pub attempted: u64,
    /// Ops answered `ok:false`, panicked or unanswered.
    pub failed: u64,
    /// Failed-op descriptions (first few).
    pub failures: Vec<String>,
    /// Output-check mismatches.
    pub mismatches: Vec<String>,
    /// Timed wall, seconds.
    pub timed_s: f64,
    /// Asks completed on the timed path.
    pub timed_asks: u64,
    /// Timed asks whose reply reported an answer-cache hit.
    pub timed_answer_hits: u64,
    /// APT cache hits / misses summed over timed asks' replies.
    pub timed_apt: (u64, u64),
    /// APTs re-materialized by timed warm asks (their `apt_misses`).
    pub timed_warm_apt_misses: u64,
    /// Cache-entries swept by timed registers (from their replies).
    pub invalidated_entries: u64,
    /// Cache counters over the timed segments.
    pub caches: CacheCounters,
    /// Peak live heap over the timed segments, bytes.
    pub peak_heap_bytes: u64,
    /// Traced timed ops (traced runs only).
    pub traced: Vec<TracedOp>,
    /// Rounds begun on the timed path (re-registering workloads).
    pub rounds: u64,
    /// Replay vs service: summed |APT-hit difference| over summed graphs
    /// of all replayed asks (traced runs only).
    pub replay_apt_divergence: (u64, u64),
}

impl Outcome {
    /// The samples a class's latency metric is taken over. Cold asks are
    /// pooled over set-up and timed path: each set-up's warm-up asks are
    /// first asks on a fresh (epoch, query) pair too. Other classes use
    /// their timed samples, or — when the timed path of the workload has
    /// none, as for registers on the follow-up workload — the set-up's.
    pub fn class_samples(&self, class: Class) -> (Phase, Samples) {
        let get = |phase| {
            self.samples
                .get(&(phase, class))
                .cloned()
                .unwrap_or_default()
        };
        let mut timed = get(Phase::Timed);
        if class == Class::Cold {
            timed.extend(&get(Phase::Setup));
            return (Phase::Timed, timed);
        }
        if timed.is_empty() {
            (Phase::Setup, get(Phase::Setup))
        } else {
            (Phase::Timed, timed)
        }
    }
}

/// Run settings from the command line.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Directory for corpora and outputs.
    pub out: PathBuf,
}

/// One question: query index and the two group values.
type Question = (usize, String, String);

/// The service under test plus the client's view of it.
struct Client<'t> {
    service: ExplanationService,
    kind: Kind,
    sqls: Vec<&'static str>,
    /// The database each query runs on.
    dbs: Vec<String>,
    queries: Vec<Query>,
    sessions: Vec<u64>,
    /// Databases registered so far.
    registered: Vec<String>,
    /// Explanations of every question answered on the current epoch.
    answers: HashMap<Question, String>,
    phase: Phase,
    replay: Option<Replay<'t>>,
}

/// Runs one workload.
pub fn run(s: &Settings, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let kind = s.workload.kind();
    let corpora_dir = s
        .out
        .join(format!("{}-{}", s.workload.name(), std::process::id()));
    std::fs::create_dir_all(&corpora_dir).map_err(|e| format!("{}: {e}", corpora_dir.display()))?;
    let result = run_in(s, kind, &corpora_dir, tracer);
    std::fs::remove_dir_all(&corpora_dir).ok();
    result
}

fn run_in(
    s: &Settings,
    kind: Kind,
    corpora_dir: &std::path::Path,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    let wl = s.workload;
    let sqls = wl.queries();
    let corpora: Vec<Corpus> = (0..wl.corpora())
        .map(|i| {
            let seed = s.seed.wrapping_mul(1_000).wrapping_add(i as u64);
            // A follow-up corpus serves one session's query.
            let queries = match wl {
                Workload::NbaFollowup => &sqls[i..=i],
                _ => &sqls[..],
            };
            corpus::build(kind, queries, seed, corpora_dir)
        })
        .collect::<Result<_, _>>()?;
    // Per query: its set-up corpus and that corpus's questions for it.
    let setup_corpus = |q: usize| match wl {
        Workload::NbaFollowup => (&corpora[q], &corpora[q].questions[0]),
        _ => (&corpora[0], &corpora[0].questions[q]),
    };
    let queries: Vec<Query> = sqls
        .iter()
        .map(|sql| parse_sql(sql).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    // Each set-up is followed by its own share of the timed seconds on the
    // service it built, so a run averages over independently built
    // services instead of timing one for its whole length.
    let segments = if s.trace { 1 } else { wl.setups() };
    let segment_s = s.seconds / segments as f64;
    for segment in 0..segments {
        let config = ServiceConfig::default();
        let mut c = Client {
            service: ExplanationService::new(ServiceConfig {
                registry: cajade_obs::global().clone(),
                ..config.clone()
            }),
            kind,
            sqls: sqls.clone(),
            dbs: (0..sqls.len()).map(|q| wl.db(q)).collect(),
            queries: queries.clone(),
            sessions: vec![0; queries.len()],
            registered: Vec::new(),
            answers: HashMap::new(),
            phase: Phase::Setup,
            replay: tracer.map(|t| Replay::new(t, &config)),
        };
        let t0 = Instant::now();
        for q in 0..queries.len() {
            let (corpus, _) = setup_corpus(q);
            if !c.registered.contains(&c.dbs[q]) {
                c.register(&c.dbs[q].clone(), &corpus.dir, &mut out);
            }
            c.query(q, &mut out);
        }
        if wl.warms_up() {
            for q in 0..queries.len() {
                let (a, b) = setup_corpus(q).1[0].clone();
                c.ask((q, a, b), Class::Cold, &mut out);
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());

        c.phase = Phase::Timed;
        let before = c.stats(&mut out);
        cajade_obs::alloc::reset_peak();
        let t0 = Instant::now();
        let expired = || t0.elapsed().as_secs_f64() >= segment_s;
        match wl {
            Workload::NbaFollowup => {
                // Each segment starts every session's follow-ups its share
                // of the way into the list, so segments ask different
                // questions; the warm-up question stays first.
                let sessions: Vec<_> = (0..queries.len())
                    .map(|q| {
                        let mut pairs = setup_corpus(q).1.clone();
                        let follow_ups = pairs.len() - 1;
                        pairs[1..].rotate_left(follow_ups * segment / segments);
                        pairs
                    })
                    .collect();
                for (question, class) in followup_stream(&sessions, s.seed) {
                    if expired() {
                        break;
                    }
                    c.ask(question, class, &mut out);
                }
            }
            Workload::NbaColdstart | Workload::SynthWide => {
                // Rounds run whole. After the first, another starts only
                // if one as long as the last still fits in the segment, so
                // a segment holds the same number of rounds on a slightly
                // faster or slower host.
                let mut last_round_s = 0.0;
                while last_round_s == 0.0 || t0.elapsed().as_secs_f64() + last_round_s <= segment_s
                {
                    let round_t0 = Instant::now();
                    // Alternate the pool's other corpora, never the one
                    // set-up registered, so every register changes content.
                    let next = 1 + out.rounds as usize % (corpora.len() - 1);
                    out.rounds += 1;
                    c.register(DB, &corpora[next].dir, &mut out);
                    let mut asked: Vec<Question> = Vec::new();
                    for (q, pairs) in corpora[next].questions.iter().enumerate() {
                        c.query(q, &mut out);
                        // Cold: the query's first question on this epoch.
                        // Then follow-ups: three per NBA query, every
                        // remaining two-point question on the synthetic
                        // corpus.
                        let follow_ups = wl.follow_ups(pairs.len());
                        for (i, (a, b)) in pairs.iter().take(1 + follow_ups).enumerate() {
                            let class = if i == 0 { Class::Cold } else { Class::Warm };
                            let question = (q, a.clone(), b.clone());
                            asked.push(question.clone());
                            c.ask(question, class, &mut out);
                        }
                    }
                    // The round ends by re-asking each of its questions.
                    for question in asked {
                        c.ask(question, Class::Repeat, &mut out);
                    }
                    last_round_s = round_t0.elapsed().as_secs_f64();
                }
            }
        }
        out.timed_s += t0.elapsed().as_secs_f64();
        out.peak_heap_bytes = out.peak_heap_bytes.max(heap().max(0) as u64);
        let after = c.stats(&mut out);
        if let (Some(a), Some(b)) = (after, before) {
            out.caches.add(&a.since(&b));
        }
    }
    Ok(out)
}

/// Peak live heap bytes since the last `reset_peak`.
fn heap() -> i64 {
    cajade_obs::alloc::heap_stats().map_or(0, |h| h.peak_live_bytes)
}

/// The follow-up op stream over the sessions' question lists (each in
/// its seeded order, the first one used to warm the session): every
/// other question once, round-robin over the sessions, with a
/// [`REPEAT_SHARE`] of repeats of questions asked before, the warm-ups
/// included.
pub fn followup_stream(sessions: &[Vec<(String, String)>], seed: u64) -> Vec<(Question, Class)> {
    let mut rng = SplitMix::new(seed ^ 0xF0110_F0110);
    let mut queues: Vec<std::collections::VecDeque<Question>> = sessions
        .iter()
        .enumerate()
        .map(|(q, pairs)| {
            pairs
                .iter()
                .skip(1)
                .map(|(a, b)| (q, a.clone(), b.clone()))
                .collect()
        })
        .collect();
    let mut asked: Vec<Question> = sessions
        .iter()
        .enumerate()
        .map(|(q, pairs)| (q, pairs[0].0.clone(), pairs[0].1.clone()))
        .collect();
    let mut stream = Vec::new();
    let mut turn = 0usize;
    while queues.iter().any(|q| !q.is_empty()) {
        if rng.unit() < REPEAT_SHARE {
            let q = asked[rng.below(asked.len())].clone();
            stream.push((q, Class::Repeat));
            continue;
        }
        let n = queues.len();
        let Some(q) = (0..n).find_map(|i| queues[(turn + i) % n].pop_front()) else {
            break;
        };
        turn = (q.0 + 1) % n;
        asked.push(q.clone());
        stream.push((q, Class::Warm));
    }
    stream
}

impl Client<'_> {
    /// Sends one line, times it, and accounts for failures. In traced
    /// runs the request is also parsed by the benchmark first, timing
    /// the wire's parse layer on its own.
    fn send(&mut self, line: &str, class: Class, out: &mut Outcome) -> (Reply, f64) {
        let parse_ms = if self.replay.is_some() {
            let t = Instant::now();
            let parsed = Json::parse(line);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(parsed);
            ms
        } else {
            0.0
        };
        let reply = wire::send(&self.service, line);
        out.attempted += 1;
        let samples = out.samples.entry((self.phase, class)).or_default();
        if reply.ok() {
            samples.push(reply.wall_ms());
        } else {
            samples.push_missed();
            out.failed += 1;
            if out.failures.len() < 10 {
                out.failures.push(format!(
                    "{class:?} op failed ({}): {line}",
                    reply.error_code()
                ));
            }
        }
        (reply, parse_ms)
    }

    fn mismatch(&self, out: &mut Outcome, msg: String) {
        if out.mismatches.len() < 20 {
            out.mismatches.push(msg);
        }
    }

    fn traced(&self, reply: &Reply, parse_ms: f64) -> TracedOp {
        TracedOp {
            parse_ms,
            handle_ms: reply.handle_ms,
            render_ms: reply.render_ms,
            bytes: reply.line.len(),
            ask: None,
            register: None,
        }
    }

    fn register(&mut self, db: &str, dir: &std::path::Path, out: &mut Outcome) {
        let (reply, parse_ms) = self.send(&wire::register_line(db, dir), Class::Register, out);
        if !reply.ok() {
            return;
        }
        let j = reply.json.as_ref().expect("ok reply has a body");
        let replaced = j.get("replaced").and_then(Json::as_bool) == Some(true);
        let invalidated = j
            .get("invalidated_entries")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let known = self.registered.iter().any(|d| d == db);
        if known && !replaced {
            self.mismatch(
                out,
                format!("re-register of {} did not replace", dir.display()),
            );
        }
        if self.phase == Phase::Timed {
            out.invalidated_entries += invalidated;
        }
        if !known {
            self.registered.push(db.to_string());
        }
        let dbs = &self.dbs;
        self.answers.retain(|(q, _, _), _| dbs[*q] != db);
        let traced = self.replay.is_some().then(|| self.traced(&reply, parse_ms));
        if let (Some(replay), Some(mut op)) = (self.replay.as_mut(), traced) {
            match replay.register(&self.service, db, dir) {
                Ok(work) => {
                    if work.invalidated as u64 != invalidated {
                        let msg = format!(
                            "register sweep: service invalidated {invalidated}, replay {}",
                            work.invalidated
                        );
                        self.mismatch(out, msg);
                    }
                    op.register = Some(work);
                }
                Err(e) => self.mismatch(out, format!("replayed register failed: {e}")),
            }
            if self.phase == Phase::Timed {
                out.traced.push(op);
            }
        }
    }

    fn query(&mut self, q: usize, out: &mut Outcome) {
        let sql = self.sqls[q];
        let db = self.dbs[q].clone();
        let (reply, _) = self.send(&wire::query_line(&db, sql), Class::Query, out);
        if let Some(id) = reply
            .json
            .as_ref()
            .filter(|_| reply.ok())
            .and_then(|j| j.get("session"))
            .and_then(Json::as_u64)
        {
            self.sessions[q] = id;
        }
    }

    fn stats(&mut self, out: &mut Outcome) -> Option<CacheCounters> {
        let (reply, _) = self.send(wire::STATS_LINE, Class::Stats, out);
        reply.json.as_ref().and_then(CacheCounters::from_reply)
    }

    fn ask(&mut self, question: Question, class: Class, out: &mut Outcome) {
        let (q, t1, t2) = &question;
        let column = self.kind.group_column();
        let line = wire::ask_line(self.sessions[*q], column, t1, t2);
        let (reply, parse_ms) = self.send(&line, class, out);
        if self.phase == Phase::Timed {
            out.timed_asks += 1;
        }
        if !reply.ok() {
            return;
        }
        let j = reply.json.as_ref().expect("ok reply has a body");
        let cache = j.get("cache");
        let cache_str = |k: &str| cache.and_then(|c| c.get(k)).and_then(Json::as_str);
        let cache_num = |k: &str| cache.and_then(|c| c.get(k)).and_then(Json::as_u64);
        let answer_hit = cache_str("answer") == Some("hit");
        let prov_hit = cache_str("provenance") == Some("hit");
        let apt_hits = cache_num("apt_hits").unwrap_or(0);
        let apt_misses = cache_num("apt_misses").unwrap_or(0);
        let explanations = j.get("explanations").map(Json::render).unwrap_or_default();
        let label = format!("{class:?} ask q{q} ({t1} vs {t2})");

        // Output checks.
        match j.get("explanations").and_then(Json::as_array) {
            Some(list) if !list.is_empty() => {
                for e in list {
                    for k in ["precision", "recall", "f_score"] {
                        let v = e.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                        if !(0.0..=1.0).contains(&v) {
                            self.mismatch(out, format!("{label}: {k} = {v} outside [0, 1]"));
                        }
                    }
                }
            }
            _ => self.mismatch(out, format!("{label}: no explanations")),
        }
        let expected = match class {
            Class::Cold => !answer_hit && !prov_hit && apt_hits == 0,
            Class::Warm => !answer_hit && prov_hit,
            Class::Repeat => answer_hit,
            _ => true,
        };
        if !expected {
            let msg = format!(
                "{label}: cache block {} does not fit the class",
                cache.map(Json::render).unwrap_or_default()
            );
            self.mismatch(out, msg);
        }
        if class == Class::Repeat {
            match self.answers.get(&question) {
                Some(first) if *first == explanations => {}
                Some(_) => self.mismatch(out, format!("{label}: differs from its first answer")),
                None => self.mismatch(out, format!("{label}: repeat of a question never answered")),
            }
        } else {
            self.answers.insert(question.clone(), explanations.clone());
        }
        if self.phase == Phase::Timed {
            out.timed_answer_hits += answer_hit as u64;
            out.timed_apt.0 += apt_hits;
            out.timed_apt.1 += apt_misses;
            if class == Class::Warm {
                out.timed_warm_apt_misses += apt_misses;
            }
        }

        // Traced replay of the same question.
        let Some(replay) = self.replay.as_ref() else {
            return;
        };
        let mut op = self.traced(&reply, parse_ms);
        let Some(reg) = self.service.database(&self.dbs[*q]) else {
            self.mismatch(out, format!("{label}: database vanished"));
            return;
        };
        let user_q = UserQuestion::two_point(&[(column, t1)], &[(column, t2)]);
        match replay.ask(&reg, &self.queries[*q], &user_q) {
            Ok(work) => {
                if work.answer != explanations {
                    self.mismatch(
                        out,
                        format!("{label}: replayed ranked list differs from the service's"),
                    );
                }
                let graphs = apt_hits + apt_misses;
                let replayed_graphs = (work.apt_hits + work.apt_misses) as u64;
                let diff = (work.apt_hits as u64).abs_diff(apt_hits);
                // Once the APT cache evicts, which entry goes depends on
                // how the two workers interleaved their lookups, in the
                // service and in the replay alike; from then on the hit
                // count may differ by a bounded amount.
                let allowed = if replay.apt_evictions() > 0 {
                    (graphs as f64 * EVICTION_ORDER_TOLERANCE).ceil() as u64
                } else {
                    0
                };
                out.replay_apt_divergence.0 += diff;
                out.replay_apt_divergence.1 += graphs;
                if (work.answer_hit, work.prov_hit, replayed_graphs)
                    != (answer_hit, prov_hit, graphs)
                    || diff > allowed
                {
                    self.mismatch(
                        out,
                        format!(
                            "{label}: cache outcome (answer hit, provenance hit, apt hits, apt misses) \
                             service {:?} vs replay {:?}",
                            (answer_hit, prov_hit, apt_hits, apt_misses),
                            (work.answer_hit, work.prov_hit, work.apt_hits, work.apt_misses)
                        ),
                    );
                }
                op.ask = Some(work);
            }
            Err(e) => self.mismatch(out, format!("{label}: replay failed: {e}")),
        }
        if self.phase == Phase::Timed {
            out.traced.push(op);
        }
    }
}
