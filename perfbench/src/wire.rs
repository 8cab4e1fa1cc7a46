//! The closed-loop wire client: one request line at a time through the
//! public `protocol::handle_line` → `Json::render` path that
//! `cajade-serve` runs per stdin line, timed around both calls.

use std::time::Instant;

use cajade_service::json::Json;
use cajade_service::{protocol, ExplanationService};

/// What one request line got back.
pub struct Reply {
    /// The response object; `None` when the call panicked (no reply).
    pub json: Option<Json>,
    /// The rendered response line (empty without a reply).
    pub line: String,
    /// `handle_line` wall, ms.
    pub handle_ms: f64,
    /// `render` wall, ms.
    pub render_ms: f64,
}

impl Reply {
    /// `handle_line` + `render`, ms: the latency the benchmark reports.
    pub fn wall_ms(&self) -> f64 {
        self.handle_ms + self.render_ms
    }

    /// True when the op answered `ok:true`.
    pub fn ok(&self) -> bool {
        self.json
            .as_ref()
            .and_then(|j| j.get("ok"))
            .and_then(Json::as_bool)
            == Some(true)
    }

    /// The error code of an `ok:false` reply, or `no_reply`.
    pub fn error_code(&self) -> String {
        match &self.json {
            None => "no_reply".to_string(),
            Some(j) => j
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
        }
    }
}

/// Sends one request line and waits for its reply. A panic escaping the
/// protocol layer is caught here and reported as a missing reply.
pub fn send(service: &ExplanationService, line: &str) -> Reply {
    let t0 = Instant::now();
    let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        protocol::handle_line(service, line)
    }));
    let handle_ms = t0.elapsed().as_secs_f64() * 1e3;
    let Ok(json) = handled else {
        return Reply {
            json: None,
            line: String::new(),
            handle_ms,
            render_ms: 0.0,
        };
    };
    let t1 = Instant::now();
    let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| json.render())).ok();
    let render_ms = t1.elapsed().as_secs_f64() * 1e3;
    match rendered {
        Some(line) => Reply {
            json: Some(json),
            line,
            handle_ms,
            render_ms,
        },
        None => Reply {
            json: None,
            line: String::new(),
            handle_ms,
            render_ms,
        },
    }
}

/// Escapes a string for a JSON request line.
pub fn quote(s: &str) -> String {
    Json::str(s).render()
}

/// `{"op":"register","db":…,"source":"csv_dir","path":…}`.
pub fn register_line(db: &str, dir: &std::path::Path) -> String {
    format!(
        "{{\"op\":\"register\",\"db\":{},\"source\":\"csv_dir\",\"path\":{}}}",
        quote(db),
        quote(&dir.to_string_lossy())
    )
}

/// `{"op":"query","db":…,"sql":…,"preview":false}`: opens (or reuses) a
/// session without running any pipeline stage, so the first ask is cold.
pub fn query_line(db: &str, sql: &str) -> String {
    format!(
        "{{\"op\":\"query\",\"db\":{},\"sql\":{},\"preview\":false}}",
        quote(db),
        quote(sql)
    )
}

/// A two-point ask over one group-by column.
pub fn ask_line(session: u64, column: &str, t1: &str, t2: &str) -> String {
    format!(
        "{{\"op\":\"ask\",\"session\":{session},\"t1\":{{{c}:{}}},\"t2\":{{{c}:{}}}}}",
        quote(t1),
        quote(t2),
        c = quote(column)
    )
}

/// `{"op":"stats"}`.
pub const STATS_LINE: &str = "{\"op\":\"stats\"}";
