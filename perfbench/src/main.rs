//! Command-line entry of the repository benchmark; see the library docs.

use std::path::PathBuf;
use std::process::ExitCode;

use cajade_perfbench::spans::Tracer;
use cajade_perfbench::workload::{self, Settings, Workload};
use cajade_perfbench::{layers, report};

// The allocator `cajade-serve` installs: heap attribution on every
// allocation, and the source of `peak_heap_mb`.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const USAGE: &str = "usage: perfbench --workload <nba-followup|nba-coldstart|synth-wide> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// Nanoseconds one span costs to open, close and record.
fn span_cost_ns() -> f64 {
    let t = Tracer::new();
    let n = 20_000;
    let t0 = std::time::Instant::now();
    for _ in 0..n {
        let root = t.root("calibrate");
        drop(t.span("calibrate.child"));
        drop(root);
    }
    t0.elapsed().as_nanos() as f64 / (2 * n) as f64
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&settings.out) {
        eprintln!("{}: {e}", settings.out.display());
        return ExitCode::FAILURE;
    }
    let tracer = settings.trace.then(Tracer::new);
    let span_cost = if settings.trace { span_cost_ns() } else { 0.0 };
    let out = match workload::run(&settings, tracer.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wl = settings.workload;
    let e2e = report::end_to_end(wl, &out);
    print!("{}", report::describe(wl, &out, &e2e));
    let stem = format!("{}-seed{}", wl.name(), settings.seed);
    // The untraced run leaves its warm-ask p50 for the traced run to
    // compare against: their difference is the tracing overhead.
    let reference = settings
        .out
        .join(format!("{}-untraced-warm-ask.txt", wl.name()));
    let metrics = match &tracer {
        None => {
            if let Some((p50, n)) = report::warm_ask_p50(&out) {
                let note = format!("{p50} {n} {}\n", settings.seed);
                std::fs::write(&reference, note).ok();
            }
            e2e.into_iter()
                .filter(|m| report::GATED.contains(&m.name.as_str()))
                .collect()
        }
        Some(t) => {
            let layer = layers::report(&out, t, span_cost);
            print!("{}", layer.table);
            let untraced = std::fs::read_to_string(&reference).ok().and_then(|s| {
                let mut it = s.split_whitespace();
                Some((
                    it.next()?.parse::<f64>().ok()?,
                    it.next()?.to_string(),
                    it.next()?.to_string(),
                ))
            });
            match (report::warm_ask_p50(&out), untraced) {
                (Some((traced, n)), Some((base, m, seed))) => println!(
                    "  tracing overhead: warm ask p50 {traced:.3} ms traced (n={n}) vs {base:.3} ms \
                     untraced (n={m}, seed {seed}): {:+.1}%",
                    100.0 * (traced / base - 1.0)
                ),
                _ => println!(
                    "  tracing overhead vs untraced: no untraced run of {} recorded in {}",
                    wl.name(),
                    settings.out.display()
                ),
            }
            let spans = settings.out.join(format!("{stem}.spans.jsonl"));
            match t.write_jsonl(&spans) {
                Ok(()) => println!("  spans: {} written to {}", t.len(), spans.display()),
                Err(e) => eprintln!("{}: {e}", spans.display()),
            }
            for m in &layer.metrics {
                println!(
                    "  {:<40} {:>16.4} {:<6} ({})",
                    m.name, m.value, m.unit, m.note
                );
            }
            layer.metrics
        }
    };
    let correct = out.failed == 0 && out.mismatches.is_empty();
    let line = report::result_line(correct, out.attempted, out.failed, &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
