//! Per-layer metrics of the traced run, measured from outside: the
//! benchmark's spans around its own calls into each layer's public
//! functions, the counts and bytes those calls return, and the `stats`
//! op's cache counters.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::replay::AskWork;
use crate::report::Metric;
use crate::spans::{analyse, Tracer};
use crate::stats::{Ratio, Samples};
use crate::workload::{Class, Outcome, CACHES};

/// Span-name prefixes that structure a trace but are no layer: their
/// self time (cache lookups, fan-out scheduling) is what the service's
/// session layer does between layer calls.
const STRUCTURAL: [&str; 2] = ["replay.", "stage."];

/// Layers a register op calls, in call order.
const REGISTER_LAYERS: [&str; 2] = ["ingest", "storage.fingerprint"];

/// Layers an ask calls: the table's rows, in pipeline order.
const ASK_LAYERS: [&str; 10] = [
    "query.execute",
    "query.provenance",
    "graph.enumerate",
    "core.resolve",
    "graph.apt",
    "mining.prepared",
    "mining.stats",
    "mining.miner",
    "core.explanation.from_mined",
    "core.explanation.rank",
];

fn is_layer(name: &str) -> bool {
    !STRUCTURAL.iter().any(|p| name.starts_with(p))
}

/// Per-op layer accounting, ns.
#[derive(Debug, Default, Clone)]
struct LayerNs {
    /// Inclusive span durations summed over threads.
    inclusive: f64,
    /// Self time summed over threads.
    busy: f64,
    /// Self time as a share of the wall clock.
    wall: f64,
}

/// Everything the traced run reports: metrics plus the table.
pub struct LayerReport {
    /// Per-layer metrics, every one of [`crate::report::PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// The human-readable per-layer table.
    pub table: String,
}

/// Builds the per-layer report of a traced run. `span_cost_ns` is the
/// calibrated cost of recording one span.
pub fn report(out: &Outcome, tracer: &Tracer, span_cost_ns: f64) -> LayerReport {
    let mut layers: BTreeMap<&'static str, LayerNs> = BTreeMap::new();
    let mut parse_us = Samples::default();
    let mut render_us = Samples::default();
    let mut bytes = Samples::default();
    let mut unattributed = Samples::default();
    let mut ask_wall = Samples::default();
    let (mut wall_total, mut parse_total, mut render_total, mut unattr_total) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut efficiency: BTreeMap<&'static str, Ratio> = BTreeMap::new();
    let mut peaks: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut asks = 0usize;
    let mut registers = 0usize;
    let mut work = AskWork::default();
    let (mut register_rows, mut spans_recorded) = (0usize, 0usize);
    let (mut valid, mut enumerated) = (0usize, 0usize);
    // The replay's own wall outside layer calls (its cache lookups, key
    // building and fan-out scheduling).
    let mut bookkeeping_ns = 0.0f64;

    for op in &out.traced {
        let trace = match (&op.ask, &op.register) {
            (Some(a), _) => a.trace,
            (_, Some(r)) => r.trace,
            _ => continue,
        };
        let spans = tracer.trace_spans(trace);
        spans_recorded += spans.len();
        let times = analyse(&spans);
        let mut layer_wall_ns = 0.0;
        for s in &spans {
            let t = times[&s.id];
            if !is_layer(s.name) {
                if op.ask.is_some() {
                    bookkeeping_ns += t.self_wall_ns;
                }
                continue;
            }
            let l = layers.entry(s.name).or_default();
            l.inclusive += s.dur() as f64;
            l.busy += t.self_ns as f64;
            l.wall += t.self_wall_ns;
            layer_wall_ns += t.self_wall_ns;
        }
        if let Some(r) = &op.register {
            registers += 1;
            register_rows += r.rows;
            let p = peaks.entry("ingest").or_default();
            *p = (*p).max(r.peak_bytes);
            continue;
        }
        let Some(a) = &op.ask else { continue };
        asks += 1;
        let wall = op.handle_ms + op.render_ms;
        let unattr = op.handle_ms - op.parse_ms - layer_wall_ns / 1e6;
        parse_us.push(op.parse_ms * 1e3);
        render_us.push(op.render_ms * 1e3);
        bytes.push(op.bytes as f64);
        unattributed.push(unattr);
        ask_wall.push(wall);
        wall_total += wall;
        parse_total += op.parse_ms;
        render_total += op.render_ms;
        unattr_total += unattr;
        // Fan-out efficiency: busy of each stage's layer children over
        // the stage wall times its workers.
        for s in spans.iter().filter(|s| s.name.starts_with("stage.")) {
            let busy: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id) && is_layer(c.name))
                .map(|c| c.dur())
                .sum();
            let stage = &s.name["stage.".len()..];
            if let Some((name, workers)) = a.fanout.iter().find(|(n, _)| *n == stage) {
                efficiency.entry(name).or_default().add(Ratio::efficiency(
                    busy as f64,
                    s.dur() as f64,
                    *workers,
                ));
            }
        }
        for (name, b) in &a.peak_bytes {
            let p = peaks.entry(name).or_default();
            *p = (*p).max(*b);
        }
        if !a.prov_hit {
            valid += a.valid_graphs;
            enumerated += a.graphs;
        }
        accumulate(&mut work, a);
    }

    let per_ask = |v: f64| if asks > 0 { v / asks as f64 } else { 0.0 };
    let per_reg = |v: f64| {
        if registers > 0 {
            v / registers as f64
        } else {
            0.0
        }
    };
    let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.inclusive / 1e6);
    let p50 = |s: &Samples| s.summary().map_or(0.0, |s| s.p50);
    let caches = &out.caches;
    let cache_ratio = |i: usize| Ratio::hit_ratio(caches.caches[i].0, caches.caches[i].1);
    let idx = |name: &str| CACHES.iter().position(|c| *c == name).unwrap_or(0);
    let resident: u64 = caches.caches.iter().map(|c| c.3).sum();
    let eff = |n: &str| efficiency.get(n).copied().unwrap_or_default();
    let peak = |n: &str| peaks.get(n).copied().unwrap_or(0) as f64;
    let timed_asks = out.timed_asks.max(1) as f64;
    let class_count = |c: Class| {
        out.samples
            .get(&(crate::workload::Phase::Timed, c))
            .map_or(0, Samples::len) as f64
    };
    let warm = class_count(Class::Warm);
    let traced_warm = crate::report::warm_ask_p50(out).unwrap_or((0.0, 0));
    let unphased = ms("mining.miner")
        - (work.mine_timings.fscore_calc + work.mine_timings.refine_patterns).as_secs_f64() * 1e3;

    let m = |name: &str, value: f64, unit: &'static str, base: String| Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
        note: base,
    };
    let r = |name: &str, ratio: Ratio| Metric {
        name: name.to_string(),
        value: ratio.value(),
        unit: "ratio",
        samples: None,
        note: format!("{ratio}"),
    };
    let pa = |what: &str| format!("per timed ask ({asks} asks), {what}");
    let pr = |what: &str| format!("per timed register ({registers}), {what}");
    let metrics = vec![
        m(
            "service.protocol.parse_us_p50",
            p50(&parse_us),
            "us",
            format!("p50 of {} asks", parse_us.len()),
        ),
        m(
            "service.protocol.render_us_p50",
            p50(&render_us),
            "us",
            format!("p50 of {} asks", render_us.len()),
        ),
        m(
            "service.protocol.response_bytes_p50",
            p50(&bytes),
            "bytes",
            format!("p50 of {} asks", bytes.len()),
        ),
        m(
            "service.session.unattributed_ms_p50",
            p50(&unattributed),
            "ms",
            format!("p50 of {} asks", unattributed.len()),
        ),
        r("service.cache.answer.hit_ratio", cache_ratio(idx("answer"))),
        r("service.cache.apt.hit_ratio", cache_ratio(idx("apt"))),
        m(
            "service.cache.apt.evictions",
            caches.caches[idx("apt")].2 as f64,
            "count",
            "timed phase".into(),
        ),
        r(
            "service.cache.prepared.hit_ratio",
            Ratio::hit_ratio(caches.prepared_hits, caches.prepared_misses),
        ),
        r(
            "service.cache.column_stats.hit_ratio",
            cache_ratio(idx("column_stats")),
        ),
        m(
            "service.cache.invalidated_entries",
            out.invalidated_entries as f64,
            "count",
            "timed registers".into(),
        ),
        m(
            "service.cache.resident_bytes",
            resident as f64,
            "bytes",
            "all caches at the end".into(),
        ),
        m("ingest.ms", per_reg(ms("ingest")), "ms", pr("ingest_dir")),
        m(
            "ingest.rows",
            per_reg(register_rows as f64),
            "count",
            pr("rows"),
        ),
        m(
            "ingest.peak_bytes",
            peak("ingest"),
            "bytes",
            "max over timed registers".into(),
        ),
        m(
            "storage.fingerprint_ms",
            per_reg(ms("storage.fingerprint")),
            "ms",
            pr("Database::fingerprint"),
        ),
        m(
            "query.execute.ms",
            per_ask(ms("query.execute")),
            "ms",
            pa("execute"),
        ),
        m(
            "query.provenance.ms",
            per_ask(ms("query.provenance")),
            "ms",
            pa("ProvenanceTable::compute"),
        ),
        m(
            "query.provenance.pt_rows",
            per_ask(work.pt_rows as f64),
            "count",
            pa("rows computed"),
        ),
        m(
            "query.provenance.peak_bytes",
            peak("query.provenance"),
            "bytes",
            "max over timed asks".into(),
        ),
        m(
            "graph.enumerate.ms",
            per_ask(ms("graph.enumerate")),
            "ms",
            pa("enumerate_join_graphs"),
        ),
        m(
            "graph.enumerate.graphs",
            per_ask(work.graphs as f64),
            "count",
            pa("graphs enumerated"),
        ),
        r(
            "graph.enumerate.valid_ratio",
            Ratio::new(valid as f64, enumerated as f64),
        ),
        m(
            "graph.apt.materialize_ms",
            per_ask(ms("graph.apt")),
            "ms",
            pa("materialize, summed over workers"),
        ),
        m(
            "graph.apt.calls",
            per_ask(work.apt_misses as f64),
            "count",
            pa("APTs materialized"),
        ),
        m(
            "graph.apt.rows",
            per_ask(work.apt_rows as f64),
            "count",
            pa("rows materialized"),
        ),
        m(
            "graph.apt.bytes",
            per_ask(work.apt_bytes as f64),
            "bytes",
            pa("Apt::approx_bytes"),
        ),
        m(
            "graph.apt.peak_bytes",
            peak("graph.apt"),
            "bytes",
            "max over timed asks".into(),
        ),
        m(
            "mining.stats.column_stats_ms",
            per_ask(ms("mining.stats")),
            "ms",
            pa("base_column_stats"),
        ),
        m(
            "mining.stats.calls",
            per_ask(work.column_stats_calls as f64),
            "count",
            pa("columns analysed"),
        ),
        m(
            "mining.prepared.ms",
            per_ask(ms("mining.prepared")),
            "ms",
            pa("prepare_mining, summed over workers"),
        ),
        m(
            "mining.prepared.calls",
            per_ask(work.prep_misses as f64),
            "count",
            pa("preparations built"),
        ),
        m(
            "mining.prepared.bytes",
            per_ask(work.prepared_bytes as f64),
            "bytes",
            pa("PreparedApt::approx_bytes"),
        ),
        m(
            "mining.prepared.featsel_ms",
            per_ask(work.prep_timings.feature_selection.as_secs_f64() * 1e3),
            "ms",
            pa("prep_timings.feature_selection"),
        ),
        m(
            "mining.prepared.gen_pat_cand_ms",
            per_ask(work.prep_timings.gen_pat_cand.as_secs_f64() * 1e3),
            "ms",
            pa("prep_timings.gen_pat_cand"),
        ),
        m(
            "mining.prepared.index_ms",
            per_ask(work.prep_timings.prepare.as_secs_f64() * 1e3),
            "ms",
            pa("prep_timings.prepare"),
        ),
        m(
            "mining.prepared.peak_bytes",
            peak("mining.prepared"),
            "bytes",
            "max over timed asks".into(),
        ),
        m(
            "mining.miner.ms",
            per_ask(ms("mining.miner")),
            "ms",
            pa("mine_prepared, summed over workers"),
        ),
        m(
            "mining.miner.unphased_ms",
            per_ask(unphased),
            "ms",
            pa("mine_prepared minus fscore_calc and refine_patterns"),
        ),
        m(
            "mining.miner.patterns_evaluated",
            per_ask(work.patterns_evaluated as f64),
            "count",
            pa("patterns scored"),
        ),
        m(
            "mining.miner.ub_pruned_children",
            per_ask(work.mine_timings.ub_pruned_children as f64),
            "count",
            pa("children pruned"),
        ),
        r(
            "mining.miner.prune_ratio",
            Ratio::share(
                work.mine_timings.ub_pruned_children as f64,
                work.patterns_evaluated as f64,
            ),
        ),
        m(
            "mining.miner.peak_bytes",
            peak("mining.miner"),
            "bytes",
            "max over timed asks".into(),
        ),
        m(
            "core.resolve.ms",
            per_ask(ms("core.resolve")),
            "ms",
            pa("resolve_question"),
        ),
        m(
            "core.explanation.from_mined_ms",
            per_ask(ms("core.explanation.from_mined")),
            "ms",
            pa("from_mined + group_label, summed over workers"),
        ),
        m(
            "core.explanation.rank_ms",
            per_ask(ms("core.explanation.rank")),
            "ms",
            pa("rank_and_collapse"),
        ),
        r(
            "core.explanation.rank_kept_ratio",
            Ratio::new(work.rank_kept as f64, work.rank_in as f64),
        ),
        r("compat.rayon.efficiency.materialize", eff("materialize")),
        r("compat.rayon.efficiency.prepare", eff("prepare")),
        r("compat.rayon.efficiency.mine", eff("mine")),
        r(
            "workload.repeat_share",
            Ratio::new(class_count(Class::Repeat), timed_asks),
        ),
        r(
            "workload.answer_hit_ratio",
            Ratio::new(out.timed_answer_hits as f64, timed_asks),
        ),
        r(
            "workload.apt_hit_ratio",
            Ratio::hit_ratio(out.timed_apt.0, out.timed_apt.1),
        ),
        m(
            "workload.rematerializations_per_ask",
            if warm > 0.0 {
                out.timed_warm_apt_misses as f64 / warm
            } else {
                0.0
            },
            "count",
            format!("APTs re-materialized per warm ask ({warm} warm asks)"),
        ),
        r(
            "workload.cold_share",
            Ratio::new(class_count(Class::Cold), timed_asks),
        ),
        m(
            "trace.warm_ask_p50_ms",
            traced_warm.0,
            "ms",
            format!(
                "p50 of {} traced warm asks; compare warm_ask_p50_ms untraced",
                traced_warm.1
            ),
        ),
        r(
            "trace.replay_apt_divergence",
            Ratio::new(
                out.replay_apt_divergence.0 as f64,
                out.replay_apt_divergence.1 as f64,
            ),
        ),
        r(
            "trace.span_overhead_ratio",
            Ratio::new(spans_recorded as f64 * span_cost_ns / 1e6, wall_total),
        ),
    ];

    // The table: self time as a share of traced ask wall. The rows sum
    // to the ask wall by construction: wire parse + render, every
    // layer's wall share, and the session's unattributed remainder.
    let mut table = String::new();
    let share = |v: f64| {
        if wall_total > 0.0 {
            100.0 * v / wall_total
        } else {
            0.0
        }
    };
    let _ = writeln!(
        table,
        "per-layer self time, {asks} traced asks, ask wall {wall_total:.1} ms in total \
         (p50 {:.3} ms); tracing overhead: {} spans ≈ {:.3} ms of span bookkeeping ({:.3}% of ask wall)",
        p50(&ask_wall),
        spans_recorded,
        spans_recorded as f64 * span_cost_ns / 1e6,
        share(spans_recorded as f64 * span_cost_ns / 1e6),
    );
    let _ = writeln!(
        table,
        "  {:<30} {:>12} {:>12} {:>9}",
        "layer", "busy ms/ask", "wall ms/ask", "% wall"
    );
    let mut row = |name: &str, busy: f64, wall: f64| {
        let _ = writeln!(
            table,
            "  {:<30} {:>12.3} {:>12.3} {:>8.2}%",
            name,
            per_ask(busy),
            per_ask(wall),
            share(wall)
        );
    };
    row("service.protocol.parse", parse_total, parse_total);
    row("service.protocol.render", render_total, render_total);
    let mut accounted = parse_total + render_total + unattr_total;
    for name in ASK_LAYERS {
        if let Some(l) = layers.get(name) {
            row(name, l.busy / 1e6, l.wall / 1e6);
            accounted += l.wall / 1e6;
        }
    }
    row("service.session (unattributed)", unattr_total, unattr_total);
    let _ = writeln!(
        table,
        "  {:<30} {:>12} {:>12.3} {:>8.2}%",
        "total",
        "",
        per_ask(accounted),
        share(accounted)
    );
    let _ = writeln!(
        table,
        "  (the replay's own cache lookups and fan-out outside layer calls: {:.3} ms/ask; \
         the service's counterpart sits in service.session)",
        per_ask(bookkeeping_ns / 1e6)
    );
    if registers > 0 {
        let _ = writeln!(table, "  registers ({registers} traced):");
        for name in REGISTER_LAYERS {
            if let Some(l) = layers.get(name) {
                let _ = writeln!(
                    table,
                    "  {:<30} {:>12.3} ms/register",
                    name,
                    per_reg(l.busy / 1e6)
                );
            }
        }
    }
    LayerReport { metrics, table }
}

fn accumulate(total: &mut AskWork, a: &AskWork) {
    total.apt_misses += a.apt_misses;
    total.prep_misses += a.prep_misses;
    total.pt_rows += a.pt_rows;
    total.graphs += a.graphs;
    total.apt_rows += a.apt_rows;
    total.apt_bytes += a.apt_bytes;
    total.prepared_bytes += a.prepared_bytes;
    total.prep_timings.accumulate(&a.prep_timings);
    total.mine_timings.accumulate(&a.mine_timings);
    total.patterns_evaluated += a.patterns_evaluated;
    total.column_stats_calls += a.column_stats_calls;
    total.rank_in += a.rank_in;
    total.rank_kept += a.rank_kept;
}
