//! The `bench profile <workload>` pipeline: run a workload with the
//! simulator's observability layer on, write the Chrome/Perfetto and VCD
//! artifacts, and print the profile + bottleneck report that tells the
//! user which μopt transform to reach for next.
//!
//! Also home to the golden-trace schema validator used by CI
//! (`experiments trace-schema`): a dependency-free JSON parser plus a
//! checked-in schema (`scripts/trace_schema.json`) that pins the
//! trace-event fields Perfetto needs, so an exporter regression fails the
//! build rather than silently producing an unloadable trace.

use crate::{baseline, full_stack, optimized};
use muir_sim::{simulate, BottleneckReport, SimConfig, SimProfile, Trace, TraceConfig};
use muir_workloads::resolve;

/// Everything `bench profile` produced for one workload.
pub struct ProfileArtifacts {
    /// Workload name (canonical, upper-case).
    pub workload: String,
    /// Cycles with tracing off.
    pub cycles_untraced: u64,
    /// Cycles with tracing on — must equal `cycles_untraced` exactly.
    pub cycles_traced: u64,
    /// Aggregated profile of the traced run.
    pub profile: SimProfile,
    /// Top-k critical resources with μopt suggestions.
    pub report: BottleneckReport,
    /// The raw trace (for exporting).
    pub trace: Trace,
    /// Instrumented dry-run of the paper's full μopt stack on this
    /// workload (per-pass wall time + graph deltas).
    pub pass_table: String,
    /// Cycles after applying that stack (what acting on the report buys).
    pub cycles_optimized: u64,
}

/// Profile `name`'s baseline accelerator: one untraced run (the timing
/// reference), one traced run (must match cycle-for-cycle), plus an
/// instrumented μopt dry-run for the "what next" comparison.
///
/// # Panics
/// Panics on an unknown workload, simulation failure, or — the
/// observability contract — if tracing perturbed the cycle count.
pub fn profile_workload(name: &str) -> ProfileArtifacts {
    let w = resolve(name).unwrap_or_else(|e| panic!("{e}"));
    let canonical = w.name.to_string();
    let acc = baseline(&w);

    let mut mem = w.fresh_memory();
    let untraced = simulate(&acc, &mut mem, &[], &SimConfig::default())
        .unwrap_or_else(|e| panic!("{canonical}: {e}"));

    let cfg = SimConfig {
        trace: TraceConfig::on(),
        ..SimConfig::default()
    };
    let mut mem = w.fresh_memory();
    let traced = simulate(&acc, &mut mem, &[], &cfg).unwrap_or_else(|e| panic!("{canonical}: {e}"));
    assert_eq!(
        untraced.cycles, traced.cycles,
        "{canonical}: tracing perturbed the simulation"
    );
    let profile = traced.profile.expect("tracing was enabled");
    let trace = traced.trace.expect("tracing was enabled");
    let report = profile.bottlenecks(5);

    let (opt_acc, pass_report) = optimized(&w, &full_stack(w.class));
    let mut mem = w.fresh_memory();
    let opt = simulate(&opt_acc, &mut mem, &[], &SimConfig::default())
        .unwrap_or_else(|e| panic!("{canonical}: {e}"));

    ProfileArtifacts {
        workload: canonical,
        cycles_untraced: untraced.cycles,
        cycles_traced: traced.cycles,
        profile,
        report,
        trace,
        pass_table: pass_report.render(),
        cycles_optimized: opt.cycles,
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (no external crates) + trace-schema validation
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Type name used by the schema (`"object"`, `"array"`, …).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one JSON document.
///
/// # Errors
/// A message naming the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the full UTF-8 sequence starting at c.
                        let len = match c {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let chunk = b
                            .get(*pos..*pos + len)
                            .ok_or_else(|| "truncated utf-8".to_string())?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        *pos += len;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

/// What the validator checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Trace events inspected.
    pub events: usize,
    /// Events per phase actually seen: (metadata, complete, counter).
    pub meta_events: usize,
    /// `ph:"X"` complete events.
    pub complete_events: usize,
    /// `ph:"C"` counter events.
    pub counter_events: usize,
}

/// Validate a Chrome trace JSON string against the checked-in schema
/// (itself JSON: `top_required` field→type for the top-level object and
/// `event_required` keyed by `ph`).
///
/// # Errors
/// The first schema violation, with enough context to locate the event.
pub fn validate_trace_json(trace: &str, schema: &str) -> Result<ValidationSummary, String> {
    let schema = parse_json(schema).map_err(|e| format!("schema is not valid JSON: {e}"))?;
    let trace = parse_json(trace).map_err(|e| format!("trace is not valid JSON: {e}"))?;

    let top_req = schema
        .get("top_required")
        .ok_or("schema missing `top_required`")?;
    let Json::Obj(top_fields) = top_req else {
        return Err("`top_required` must be an object".to_string());
    };
    for (key, ty) in top_fields {
        let want = ty.as_str().ok_or("schema types must be strings")?;
        let got = trace
            .get(key)
            .ok_or_else(|| format!("trace missing top-level `{key}`"))?;
        if got.type_name() != want {
            return Err(format!(
                "top-level `{key}`: expected {want}, got {}",
                got.type_name()
            ));
        }
    }

    let ev_req = schema
        .get("event_required")
        .ok_or("schema missing `event_required`")?;
    // Optional category allow-list: when the schema carries `cat_allowed`,
    // every event's `cat` (if present) must be a member.
    let cat_allowed: Option<Vec<&str>> = match schema.get("cat_allowed") {
        Some(Json::Arr(cats)) => Some(
            cats.iter()
                .map(|c| c.as_str().ok_or("`cat_allowed` entries must be strings"))
                .collect::<Result<_, _>>()?,
        ),
        Some(_) => return Err("`cat_allowed` must be an array".to_string()),
        None => None,
    };
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        return Err("trace `traceEvents` is not an array".to_string());
    };
    let mut summary = ValidationSummary {
        events: events.len(),
        ..ValidationSummary::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no string `ph`"))?;
        match ph {
            "M" => summary.meta_events += 1,
            "X" => summary.complete_events += 1,
            "C" => summary.counter_events += 1,
            _ => {}
        }
        let Some(Json::Obj(required)) = ev_req.get(ph) else {
            return Err(format!("event {i}: schema does not allow ph `{ph}`"));
        };
        for (key, ty) in required {
            let want = ty.as_str().ok_or("schema types must be strings")?;
            let got = ev
                .get(key)
                .ok_or_else(|| format!("event {i} (ph {ph}) missing `{key}`"))?;
            if got.type_name() != want {
                return Err(format!(
                    "event {i} (ph {ph}) `{key}`: expected {want}, got {}",
                    got.type_name()
                ));
            }
        }
        if let (Some(allowed), Some(cat)) = (&cat_allowed, ev.get("cat").and_then(Json::as_str)) {
            if !allowed.contains(&cat) {
                return Err(format!("event {i}: cat `{cat}` not in `cat_allowed`"));
            }
        }
    }
    Ok(summary)
}

/// A hermetic trace for the schema gate: a 16-element vector-double loop,
/// simulated with tracing on. Small enough for a debug-build CI step.
///
/// # Panics
/// Panics if the tiny module fails to translate or simulate (would mean
/// the simulator itself is broken — CI should fail loudly).
pub fn golden_trace_json() -> String {
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::instr::ValueRef;
    use muir_mir::interp::Memory;
    use muir_mir::types::ScalarType;
    use muir_mir::{FunctionBuilder, Module};

    let mut m = Module::new("golden");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, v);
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());

    let acc = translate(&m, &FrontendConfig::default()).expect("golden module translates");
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &[3; 16]);
    let cfg = SimConfig {
        trace: TraceConfig::on(),
        ..SimConfig::default()
    };
    let r = simulate(&acc, &mut mem, &[], &cfg).expect("golden module simulates");
    r.trace.expect("tracing was enabled").to_chrome_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_structures() {
        let j = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":true,"e":null}"#).unwrap();
        assert_eq!(j.get("d"), Some(&Json::Bool(true)));
        assert_eq!(j.get("e"), Some(&Json::Null));
        let Some(Json::Arr(a)) = j.get("a") else {
            panic!("a missing")
        };
        assert_eq!(a[2], Json::Num(-300.0));
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
    }

    #[test]
    fn golden_trace_validates_against_checked_in_schema() {
        let schema = include_str!("../../../scripts/trace_schema.json");
        let trace = golden_trace_json();
        let summary = validate_trace_json(&trace, schema).unwrap();
        assert!(summary.meta_events > 0, "{summary:?}");
        assert!(summary.complete_events > 0, "{summary:?}");
        assert!(summary.counter_events > 0, "{summary:?}");
    }

    #[test]
    fn gemm_profile_blames_the_memory_hotspot() {
        // The paper's running example: baseline GEMM is bound by its
        // single-banked cache, so the bottleneck report must rank that
        // structure first and point at the banking pass — and tracing must
        // not move the cycle count at all.
        let art = profile_workload("GEMM");
        assert_eq!(art.cycles_traced, art.cycles_untraced);
        let top = art.report.entries.first().expect("a bottleneck is found");
        assert_eq!(top.kind, muir_sim::BottleneckKind::Structure, "{top:?}");
        assert!(top.name.contains("l1"), "{}", top.name);
        assert!(
            top.suggestion.contains("CacheBanking"),
            "{}",
            top.suggestion
        );
        assert!(
            art.cycles_optimized < art.cycles_untraced,
            "acting on the report helps: {} -> {}",
            art.cycles_untraced,
            art.cycles_optimized
        );
    }

    #[test]
    fn validator_rejects_wrong_shapes() {
        let schema = include_str!("../../../scripts/trace_schema.json");
        let e = validate_trace_json(r#"{"traceEvents":[]}"#, schema).unwrap_err();
        assert!(e.contains("missing top-level"), "{e}");
        let e = validate_trace_json(
            r#"{"traceEvents":[{"ph":"Z"}],"displayTimeUnit":"ms","otherData":{}}"#,
            schema,
        )
        .unwrap_err();
        assert!(e.contains("does not allow ph"), "{e}");
        let e = validate_trace_json(
            r#"{"traceEvents":[{"ph":"M","name":"n","pid":"oops","args":{}}],"displayTimeUnit":"ms","otherData":{}}"#,
            schema,
        )
        .unwrap_err();
        assert!(e.contains("expected number"), "{e}");
    }
}
