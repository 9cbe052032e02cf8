//! Machine-readable experiment reports.
//!
//! Every experiment module, in addition to its human-readable tables on
//! stdout, records its raw results into a [`Report`]: one row per
//! simulated (configuration, workload) cell carrying the full
//! [`RunStats`], the Bloat Factor, and the speedup versus that
//! experiment's baseline, plus a flat map of headline scalars (geometric
//! means, storage bytes, …). Passing `--out DIR` to any experiment binary
//! serializes the report as `DIR/<experiment>.json`, so result
//! trajectories can be generated and diffed run-over-run.
//!
//! The schema is a single shape shared by all experiments (documented
//! with a worked example in `EXPERIMENTS.md`):
//!
//! ```json
//! {
//!   "experiment": "fig07",
//!   "title": "Bandwidth-Aware Bypass speedup",
//!   "plan": {"warmup": 1500000, "measure": 1000000, "scale_shift": 9, "quick": false},
//!   "rows": [
//!     {"config": "BAB", "workload": "rate:mcf", "speedup": 0.987,
//!      "bloat_factor": 4.1, "stats": { ...every RunStats field... }},
//!     ...
//!   ],
//!   "failures": [
//!     {"config": "BEAR", "workload": "rate:mcf", "kind": "panic",
//!      "error": "worker thread panicked: ...", "attempts": 3},
//!     ...
//!   ],
//!   "scalars": {"gmean_all": 1.010, ...}
//! }
//! ```
//!
//! Serialization is hand-rolled (see [`Json`]) — the offline-first
//! contract of this workspace forbids registry dependencies, serde
//! included. Object keys keep insertion order, so serialized reports are
//! byte-stable for identical results.

use crate::RunPlan;
use bear_core::metrics::RunStats;
use bear_core::traffic::BloatCategory;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A JSON value with order-preserving objects.
///
/// ```
/// use bear_bench::report::Json;
/// let v = Json::Obj(vec![
///     ("n".into(), Json::Num(1.5)),
///     ("s".into(), Json::Str("a\"b".into())),
/// ]);
/// assert_eq!(v.to_string(), r#"{"n":1.5,"s":"a\"b"}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys serialize in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Unsigned integer helper (`u64` exceeding 2^53 loses precision in
    /// JSON numbers, so large counters serialize via their exact decimal
    /// representation — still a valid JSON number).
    pub fn uint(v: u64) -> Json {
        // All counters in this workspace fit f64's 53-bit mantissa in
        // practice, but go through the exact path to be safe.
        if v < (1u64 << 53) {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }

    fn escape(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        let pad = |out: &mut String, n: usize| {
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(n));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest round-trip representation.
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => Self::escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    item.write(out, indent + 1, pretty);
                }
                if !items.is_empty() {
                    pad(out, indent);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    Self::escape(k, out);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, indent + 1, pretty);
                }
                if !fields.is_empty() {
                    pad(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Two-space-indented serialization (what report files use).
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0, true);
        s
    }

    /// Parses a JSON document (checkpointed cells, prior reports).
    ///
    /// Object key order is preserved, so `parse` ∘ serialize is the
    /// identity on documents this module wrote.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending byte offset.
    ///
    /// ```
    /// use bear_bench::report::Json;
    /// let v = Json::parse(r#"{"a":[1,true,"x\n"],"b":null}"#).unwrap();
    /// assert_eq!(v.to_string(), r#"{"a":[1,true,"x\n"],"b":null}"#);
    /// assert!(Json::parse("{oops").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned-integer value: an exactly-integral number, or the string
    /// fallback [`Json::uint`] uses above 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < (1u64 << 53) as f64 => {
                Some(*v as u64)
            }
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent parser over the subset of JSON [`Json`] emits (which
/// is all of JSON minus non-integer `\u` surrogate abuse).
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(b']')?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(b'}')?;
                Ok(Json::Obj(fields))
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

impl std::fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0, false);
        f.write_str(&s)
    }
}

/// One simulated cell of an experiment's (config × workload) grid.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Configuration label (e.g. `"Alloy"`, `"BAB+DCP"`, `"BEAR@4x"`).
    pub config: String,
    /// Workload name (from [`RunStats::workload`]).
    pub workload: String,
    /// Speedup versus the experiment's baseline, when one exists.
    pub speedup: Option<f64>,
    /// Degradation marker: `None` for a healthy cell (the field is then
    /// **omitted** from the serialized row, keeping healthy reports
    /// byte-identical to pre-supervision ones), `Some("failed:<kind>")`
    /// for a quarantined placeholder (see
    /// [`Report::mark_degraded_rows`]).
    pub status: Option<String>,
    /// Full statistics of the run.
    pub stats: RunStats,
}

/// A cell that failed to produce statistics (panicked, stalled, timed
/// out, or was misconfigured) even after the supervisor's retries.
/// Failed cells degrade to zeroed placeholder rows in the tables; the
/// failure itself is recorded here so the report says *why*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRow {
    /// Configuration (design) label of the failed cell.
    pub config: String,
    /// Workload name of the failed cell.
    pub workload: String,
    /// Error class (`"panic"`, `"stalled"`, `"timeout"`, `"config"`, …).
    pub kind: String,
    /// Full error message.
    pub error: String,
    /// Attempts the supervisor spent before quarantining the cell
    /// (1 = permanent failure, no retry was warranted).
    pub attempts: usize,
}

/// A structured record of one experiment: rows plus headline scalars.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id — also the output file stem (e.g. `"fig07"`).
    pub experiment: String,
    /// Human-readable title (recorded by [`Report::banner`]).
    pub title: String,
    /// One row per simulated (config, workload) cell, in execution order.
    pub rows: Vec<ReportRow>,
    /// Cells that failed instead of producing a row.
    pub failures: Vec<FailureRow>,
    /// Headline aggregates: geometric means, storage bytes, etc.
    pub scalars: Vec<(String, f64)>,
}

impl Report {
    /// Creates an empty report for `experiment`.
    pub fn new(experiment: &str) -> Self {
        Report {
            experiment: experiment.to_string(),
            ..Default::default()
        }
    }

    /// Prints the standard experiment header and records the title.
    pub fn banner(&mut self, id: &str, title: &str, plan: &RunPlan) {
        self.title = title.to_string();
        println!("=== {id}: {title} ===");
        println!(
            "(scale 1/{}, warmup {}, measure {} cycles{})",
            1u64 << plan.scale_shift,
            plan.warmup,
            plan.measure,
            if plan.quick { ", QUICK mode" } else { "" }
        );
    }

    /// Records one run under configuration label `config`.
    pub fn add_run(&mut self, config: &str, stats: &RunStats, speedup: Option<f64>) {
        self.rows.push(ReportRow {
            config: config.to_string(),
            workload: stats.workload.clone(),
            speedup,
            status: None,
            stats: stats.clone(),
        });
    }

    /// Records a whole suite run under one configuration label, with
    /// optional per-workload speedups (same order as `stats`).
    pub fn add_suite(&mut self, config: &str, stats: &[RunStats], speedups: Option<&[f64]>) {
        for (i, s) in stats.iter().enumerate() {
            self.add_run(config, s, speedups.map(|v| v[i]));
        }
    }

    /// Records a headline scalar (geometric mean, byte count, …).
    pub fn add_scalar(&mut self, key: &str, value: f64) {
        self.scalars.push((key.to_string(), value));
    }

    /// Records a failed cell.
    pub fn add_failure(&mut self, row: FailureRow) {
        self.failures.push(row);
    }

    /// Tags every placeholder row left by a quarantined cell with a
    /// `status` of `"failed:<kind>"`, so graceful degradation is visible
    /// *in the row* and consumers never mistake a zeroed placeholder for
    /// a real result. A failure matches a placeholder by workload plus
    /// config label — the supervisor records the cell's *design* label,
    /// while experiments name rows freely ("Alloy" vs "BAB" for the same
    /// design), so the row's `stats.design` (which placeholders inherit
    /// from their config) is accepted alongside the row label. A no-op
    /// when nothing failed — healthy reports keep their exact
    /// pre-supervision bytes.
    pub fn mark_degraded_rows(&mut self) {
        if self.failures.is_empty() {
            return;
        }
        for row in &mut self.rows {
            let placeholder =
                row.stats.cycles == 0 && row.stats.ipc_per_core.iter().all(|&v| v == 0.0);
            if !placeholder {
                continue;
            }
            let kind = self
                .failures
                .iter()
                .find(|f| {
                    f.workload == row.workload
                        && (f.config == row.config || f.config == row.stats.design)
                })
                .map(|f| f.kind.clone());
            if let Some(kind) = kind {
                row.status = Some(format!("failed:{kind}"));
            }
        }
    }

    /// The report as a JSON document.
    pub fn to_json(&self, plan: &RunPlan) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            (
                "plan".into(),
                Json::Obj(vec![
                    ("warmup".into(), Json::uint(plan.warmup)),
                    ("measure".into(), Json::uint(plan.measure)),
                    ("scale_shift".into(), Json::uint(plan.scale_shift as u64)),
                    ("quick".into(), Json::Bool(plan.quick)),
                ]),
            ),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(row_to_json).collect()),
            ),
            (
                "failures".into(),
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("config".into(), Json::Str(f.config.clone())),
                                ("workload".into(), Json::Str(f.workload.clone())),
                                ("kind".into(), Json::Str(f.kind.clone())),
                                ("error".into(), Json::Str(f.error.clone())),
                                ("attempts".into(), Json::uint(f.attempts as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "scalars".into(),
                Json::Obj(
                    self.scalars
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `DIR/<experiment>.json` (creating `DIR` if needed) and
    /// returns the path.
    ///
    /// The write is atomic (temp file, fsync, rename): however the
    /// campaign dies — panic, OOM-kill, a chaos kill point — a report
    /// file is either the previous complete document or the new complete
    /// document, never a torn half-write.
    pub fn write(&self, dir: &Path, plan: &RunPlan) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        let tmp = dir.join(format!("{}.json.tmp", self.experiment));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json(plan).to_string_pretty().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Serializes every [`RunStats`] field except `workload` (the "stats"
/// object of a row — `workload` lives one level up, next to `config`).
///
/// Paired with [`stats_from_json`]: numbers use `f64`'s shortest
/// round-trip `Display` and [`Json::uint`]'s exact path, so
/// serialize → [`Json::parse`] → deserialize reproduces the input
/// bit-for-bit. Checkpointed campaign cells rely on that for
/// byte-identical resumed reports.
pub fn stats_to_json(s: &RunStats) -> Json {
    let l4 = &s.l4;
    let bloat_bytes: Vec<(String, Json)> = BloatCategory::ALL
        .iter()
        .map(|&c| (c.label().to_string(), Json::uint(s.bloat.bytes[c as usize])))
        .collect();
    Json::Obj(vec![
        ("design".into(), Json::Str(s.design.clone())),
        ("cycles".into(), Json::uint(s.cycles)),
        (
            "insts_per_core".into(),
            Json::Arr(s.insts_per_core.iter().map(|&v| Json::uint(v)).collect()),
        ),
        (
            "ipc_per_core".into(),
            Json::Arr(s.ipc_per_core.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "l4".into(),
            Json::Obj(vec![
                ("read_lookups".into(), Json::uint(l4.read_lookups)),
                ("read_hits".into(), Json::uint(l4.read_hits)),
                ("hit_rate".into(), Json::Num(l4.hit_rate)),
                ("wb_hit_rate".into(), Json::Num(l4.wb_hit_rate)),
                ("hit_latency".into(), Json::Num(l4.hit_latency)),
                ("miss_latency".into(), Json::Num(l4.miss_latency)),
                ("avg_latency".into(), Json::Num(l4.avg_latency)),
                ("fills".into(), Json::uint(l4.fills)),
                ("bypasses".into(), Json::uint(l4.bypasses)),
                (
                    "miss_probes_avoided".into(),
                    Json::uint(l4.miss_probes_avoided),
                ),
                ("wb_probes_avoided".into(), Json::uint(l4.wb_probes_avoided)),
                ("parallel_squashed".into(), Json::uint(l4.parallel_squashed)),
            ]),
        ),
        (
            "bloat".into(),
            Json::Obj(vec![
                ("bytes".into(), Json::Obj(bloat_bytes)),
                ("useful_lines".into(), Json::uint(s.bloat.useful_lines)),
            ]),
        ),
        ("l3_hit_rate".into(), Json::Num(s.l3_hit_rate)),
        (
            "cache_read_queue_latency".into(),
            Json::Num(s.cache_read_queue_latency),
        ),
        ("mem_bytes".into(), Json::uint(s.mem_bytes)),
    ])
}

/// Reconstructs [`RunStats`] from a [`stats_to_json`] object plus the
/// externally-stored workload name.
///
/// # Errors
///
/// Names the first missing or ill-typed field. Callers treating the JSON
/// as a cache (checkpoint cells) should treat an error as "absent" and
/// re-run the cell.
pub fn stats_from_json(workload: &str, v: &Json) -> Result<RunStats, String> {
    fn field<'j>(v: &'j Json, key: &str) -> Result<&'j Json, String> {
        v.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }
    fn f64_of(v: &Json, key: &str) -> Result<f64, String> {
        field(v, key)?
            .as_f64()
            .ok_or_else(|| format!("field `{key}` is not a number"))
    }
    fn u64_of(v: &Json, key: &str) -> Result<u64, String> {
        field(v, key)?
            .as_u64()
            .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
    }

    let mut s = RunStats {
        workload: workload.to_string(),
        design: field(v, "design")?
            .as_str()
            .ok_or("field `design` is not a string")?
            .to_string(),
        cycles: u64_of(v, "cycles")?,
        l3_hit_rate: f64_of(v, "l3_hit_rate")?,
        cache_read_queue_latency: f64_of(v, "cache_read_queue_latency")?,
        mem_bytes: u64_of(v, "mem_bytes")?,
        ..Default::default()
    };
    s.insts_per_core = field(v, "insts_per_core")?
        .as_arr()
        .ok_or("field `insts_per_core` is not an array")?
        .iter()
        .map(|item| item.as_u64().ok_or("bad entry in `insts_per_core`"))
        .collect::<Result<_, _>>()?;
    s.ipc_per_core = field(v, "ipc_per_core")?
        .as_arr()
        .ok_or("field `ipc_per_core` is not an array")?
        .iter()
        .map(|item| item.as_f64().ok_or("bad entry in `ipc_per_core`"))
        .collect::<Result<_, _>>()?;

    let l4 = field(v, "l4")?;
    s.l4.read_lookups = u64_of(l4, "read_lookups")?;
    s.l4.read_hits = u64_of(l4, "read_hits")?;
    s.l4.hit_rate = f64_of(l4, "hit_rate")?;
    s.l4.wb_hit_rate = f64_of(l4, "wb_hit_rate")?;
    s.l4.hit_latency = f64_of(l4, "hit_latency")?;
    s.l4.miss_latency = f64_of(l4, "miss_latency")?;
    s.l4.avg_latency = f64_of(l4, "avg_latency")?;
    s.l4.fills = u64_of(l4, "fills")?;
    s.l4.bypasses = u64_of(l4, "bypasses")?;
    s.l4.miss_probes_avoided = u64_of(l4, "miss_probes_avoided")?;
    s.l4.wb_probes_avoided = u64_of(l4, "wb_probes_avoided")?;
    s.l4.parallel_squashed = u64_of(l4, "parallel_squashed")?;

    let bloat = field(v, "bloat")?;
    let bytes = field(bloat, "bytes")?;
    for &c in BloatCategory::ALL.iter() {
        s.bloat.bytes[c as usize] = u64_of(bytes, c.label())?;
    }
    s.bloat.useful_lines = u64_of(bloat, "useful_lines")?;
    Ok(s)
}

fn row_to_json(row: &ReportRow) -> Json {
    let mut fields = vec![
        ("config".into(), Json::Str(row.config.clone())),
        ("workload".into(), Json::Str(row.workload.clone())),
        ("speedup".into(), row.speedup.map_or(Json::Null, Json::Num)),
    ];
    // Only degraded rows carry a status key: healthy reports stay
    // byte-identical to ones written before the supervision layer.
    if let Some(status) = &row.status {
        fields.push(("status".into(), Json::Str(status.clone())));
    }
    fields.push(("bloat_factor".into(), Json::Num(row.stats.bloat.factor())));
    fields.push(("stats".into(), stats_to_json(&row.stats)));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nests() {
        let v = Json::Obj(vec![
            ("a\n".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("b".into(), Json::Num(f64::NAN)),
        ]);
        assert_eq!(v.to_string(), r#"{"a\n":[null,true],"b":null}"#);
    }

    #[test]
    fn json_pretty_roundtrips_structure() {
        let v = Json::Obj(vec![("x".into(), Json::Arr(vec![Json::Num(1.0)]))]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"x\": [\n    1\n  ]\n"));
    }

    #[test]
    fn uint_is_exact_for_large_values() {
        assert_eq!(Json::uint(5).to_string(), "5");
        let big = (1u64 << 60) + 1;
        assert_eq!(Json::uint(big).to_string(), format!("\"{big}\""));
    }

    #[test]
    fn report_serializes_rows_and_scalars() {
        let plan = RunPlan {
            warmup: 10,
            measure: 20,
            scale_shift: 9,
            quick: false,
        };
        let mut r = Report::new("figXX");
        let stats = RunStats {
            workload: "rate:mcf".into(),
            design: "Alloy".into(),
            cycles: 20,
            ipc_per_core: vec![0.5],
            ..Default::default()
        };
        r.add_run("Alloy", &stats, None);
        r.add_run("BEAR", &stats, Some(1.25));
        r.add_scalar("gmean_all", 1.25);
        let json = r.to_json(&plan).to_string();
        assert!(json.contains(r#""experiment":"figXX""#));
        assert!(json.contains(r#""workload":"rate:mcf""#));
        assert!(json.contains(r#""speedup":null"#));
        assert!(json.contains(r#""speedup":1.25"#));
        assert!(json.contains(r#""gmean_all":1.25"#));
        assert!(json.contains(r#""Hit":0"#), "bloat categories present");
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let v = Json::Obj(vec![
            ("title".into(), Json::Str("tabs\tand \"quotes\"\n".into())),
            (
                "nums".into(),
                Json::Arr(vec![
                    Json::Num(0.1),
                    Json::Num(-3.25e-7),
                    Json::uint((1u64 << 60) + 7),
                ]),
            ),
            ("flag".into(), Json::Bool(false)),
            ("none".into(), Json::Null),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).expect("parse"), v);
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "\"unterminated", "{\"a\" 1}", "1 2", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_decodes_escapes() {
        let v = Json::parse(r#""aA\n\t\\\"\/""#).expect("parse");
        assert_eq!(v.as_str(), Some("aA\n\t\\\"/"));
    }

    #[test]
    fn stats_json_roundtrip_is_exact() {
        let mut stats = RunStats {
            workload: "rate:mcf".into(),
            design: "BEAR".into(),
            cycles: 123_456_789,
            insts_per_core: vec![7, (1u64 << 60) + 3, 0],
            ipc_per_core: vec![0.1, 1.0 / 3.0, 2.5e-11],
            l3_hit_rate: 0.12345678901234567,
            cache_read_queue_latency: 17.25,
            mem_bytes: (1u64 << 55) + 11,
            ..Default::default()
        };
        stats.l4.read_lookups = 42;
        stats.l4.read_hits = 19;
        stats.l4.hit_rate = 19.0 / 42.0;
        stats.l4.wb_hit_rate = 0.75;
        stats.l4.hit_latency = 51.5;
        stats.l4.miss_latency = 180.125;
        stats.l4.avg_latency = 99.0 + 1.0 / 7.0;
        stats.l4.fills = 23;
        stats.l4.bypasses = 9;
        stats.l4.miss_probes_avoided = 4;
        stats.l4.wb_probes_avoided = 2;
        stats.l4.parallel_squashed = 1;
        for (i, b) in stats.bloat.bytes.iter_mut().enumerate() {
            *b = (i as u64 + 1) * 80;
        }
        stats.bloat.useful_lines = 640;

        let text = stats_to_json(&stats).to_string_pretty();
        let parsed = Json::parse(&text).expect("parse");
        let back = stats_from_json("rate:mcf", &parsed).expect("deserialize");
        assert_eq!(back, stats);
        // And the re-serialization is byte-identical, which is what the
        // checkpoint/resume path ultimately depends on.
        assert_eq!(stats_to_json(&back).to_string_pretty(), text);
    }

    #[test]
    fn stats_from_json_rejects_missing_fields() {
        let stats = RunStats::default();
        let Json::Obj(mut fields) = stats_to_json(&stats) else {
            panic!("stats serialize to an object");
        };
        fields.retain(|(k, _)| k != "cycles");
        let err = stats_from_json("w", &Json::Obj(fields)).unwrap_err();
        assert!(err.contains("cycles"), "error was: {err}");
    }

    #[test]
    fn failures_serialize_into_reports() {
        let plan = RunPlan {
            warmup: 1,
            measure: 1,
            scale_shift: 9,
            quick: false,
        };
        let mut r = Report::new("figXX");
        r.add_failure(FailureRow {
            config: "BEAR".into(),
            workload: "rate:mcf".into(),
            kind: "panic".into(),
            error: "worker thread panicked: boom".into(),
            attempts: 3,
        });
        let json = r.to_json(&plan).to_string();
        assert!(json.contains(r#""failures":[{"config":"BEAR""#));
        assert!(json.contains(r#""kind":"panic""#));
        assert!(json.contains(r#""attempts":3"#));
    }

    #[test]
    fn failure_rows_serialize_key_stably() {
        // The failures.json / report schema is an interface: key order
        // and shape must not drift with worker scheduling or refactors.
        let plan = RunPlan {
            warmup: 1,
            measure: 1,
            scale_shift: 9,
            quick: false,
        };
        let mut r = Report::new("figXX");
        r.add_failure(FailureRow {
            config: "BAB".into(),
            workload: "mix:a".into(),
            kind: "timeout".into(),
            error: "cell BAB/mix:a exceeded its 100ms wall-clock deadline".into(),
            attempts: 1,
        });
        let json = r.to_json(&plan).to_string();
        assert!(json.contains(
            r#"{"config":"BAB","workload":"mix:a","kind":"timeout","error":"cell BAB/mix:a exceeded its 100ms wall-clock deadline","attempts":1}"#
        ));
    }

    #[test]
    fn degraded_rows_are_marked_and_healthy_rows_are_untouched() {
        let plan = RunPlan {
            warmup: 1,
            measure: 1,
            scale_shift: 9,
            quick: false,
        };
        let healthy = RunStats {
            workload: "rate:mcf".into(),
            design: "Alloy".into(),
            cycles: 100,
            ipc_per_core: vec![0.5],
            ..Default::default()
        };
        let placeholder = RunStats {
            workload: "rate:lbm".into(),
            design: "Alloy".into(),
            cycles: 0,
            ipc_per_core: vec![0.0],
            ..Default::default()
        };
        let mut r = Report::new("figXX");
        r.add_run("Alloy", &healthy, None);
        r.add_run("Alloy", &placeholder, Some(0.0));

        // Without failures, marking is a strict no-op (byte identity).
        let before = r.to_json(&plan).to_string();
        r.mark_degraded_rows();
        assert_eq!(r.to_json(&plan).to_string(), before);
        assert!(!before.contains("status"), "healthy rows carry no status");

        r.add_failure(FailureRow {
            config: "Alloy".into(),
            workload: "rate:lbm".into(),
            kind: "panic".into(),
            error: "boom".into(),
            attempts: 3,
        });
        r.mark_degraded_rows();
        let json = r.to_json(&plan).to_string();
        assert!(json.contains(r#""workload":"rate:lbm","speedup":0,"status":"failed:panic""#));
        assert!(
            !json.contains(r#""workload":"rate:mcf","speedup":null,"status""#),
            "the healthy row must stay unmarked"
        );
    }

    #[test]
    fn report_write_creates_file() {
        let plan = RunPlan {
            warmup: 1,
            measure: 1,
            scale_shift: 9,
            quick: false,
        };
        let dir = std::env::temp_dir().join(format!("bear_report_test_{}", std::process::id()));
        let mut r = Report::new("smoke");
        r.add_scalar("x", 1.0);
        let path = r.write(&dir, &plan).expect("write report");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.starts_with('{') && body.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
