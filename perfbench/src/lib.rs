//! # cajade-perfbench
//!
//! The repository benchmark. It drives `cajade-serve`'s exact
//! configuration in process — `ServiceConfig::default()` (paper
//! parameters, `parallel` on), the `TrackingAlloc` global allocator, and
//! every request through `protocol::handle_line` → `Json::render` — with
//! one closed-loop client per workload, and checks every answer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nba-followup --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays every
//! op through the public stage functions with benchmark-side spans and
//! prints the per-layer metrics and table. The last stdout line is the
//! result object (`correct`, `attempted`, `failed`, `metrics`); the exit
//! code is non-zero when any op failed or any output check did not hold.
//! Corpora and the span file go to `perfbench/out/`.

pub mod corpus;
pub mod layers;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workload;

use workload::Workload;

/// Why each workload exists (the `why` lines of `BENCHMARK.json`).
pub fn why(wl: Workload) -> &'static str {
    match wl {
        Workload::NbaFollowup => {
            "warm follow-up questions on four open sessions, each on its own NBA 0.05 corpus, whose APTs fit the caches: only mining, ranking and the wire run; ingest and enumeration idle"
        }
        Workload::NbaColdstart => {
            "re-registration rounds on NBA 0.05 that ask all five Table-2 queries cold, then follow up: ingest, provenance, enumeration, materialization and preparation all run"
        }
        Workload::SynthWide => {
            "wide synthetic star corpus (6x8 columns, 20k fact rows) whose APTs outgrow the 512 MB APT cache, so warm asks re-materialize and re-prepare: cache policy and memory show here"
        }
    }
}
