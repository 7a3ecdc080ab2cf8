//! The repository benchmark: one command, three workloads, every output
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse-cold|dse-warm|tensor-text --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off.
//! `--trace 1` alternates untraced and traced repetitions and reports
//! per-layer self times; the spans go to `.perfbench/trace-*.json`.
//! The last line of standard output is the result object. See
//! `perfbench/README.md` for the workloads and the metric → layer map.

mod dse;
mod stats;
mod tensor;
mod trace;

use muir_core::compiled::{cache_stats, CompiledAccel};
use muir_core::telemetry;
use stats::{geomean, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;

/// End-to-end metrics, `(name, unit)`, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accel_cycles_geomean", "cycles"),
];

/// Per-layer metrics, `(name, unit)`, printed by `--trace 1`. Times and
/// counts are per repetition (one sweep, or one round of graphs).
const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.build_us", "us"),
    ("frontend.tensor.parse_us", "us"),
    ("frontend.tensor.lower_us", "us"),
    ("frontend.tensor.eval_us", "us"),
    ("frontend.tensor.nodes", "count"),
    ("frontend.translate_us", "us"),
    ("frontend.translate_calls", "count"),
    ("frontend.graph_nodes", "count"),
    ("uopt.run_us", "us"),
    ("uopt.passes_run", "count"),
    ("core.seal_us", "us"),
    ("core.seal_cache_hit_ratio", "ratio"),
    ("core.artifact_kib", "KiB"),
    ("rtl.cost_us", "us"),
    ("mir.reference_us", "us"),
    ("sim.busy_us", "us"),
    ("sim.runs", "count"),
    ("sim.cycles", "cycles"),
    ("sim.fires", "count"),
    ("sim.ns_per_fire", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("store.read_us", "us"),
    ("store.result_hits", "count"),
    ("store.result_puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.disk_kib", "KiB"),
    ("store.quarantined", "count"),
    ("service.drain_us", "us"),
    ("service.group_us", "us"),
    ("service.self_us", "us"),
    ("service.coalesced_ratio", "ratio"),
    ("dse.self_us", "us"),
    ("dse.artifact_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

/// The spans `EvalService::drain` records itself, imported under the
/// benchmark's own `service.drain` span.
const SERVICE_SPANS: [&str; 4] = [
    "service.group",
    "service.store_probe",
    "service.simulate",
    "service.retry",
];

const WORKLOADS: [&str; 3] = ["dse-cold", "dse-warm", "tensor-text"];

/// Set-up builds run this many times; `setup_s` takes their median.
const SETUPS: usize = 15;

/// What one repetition of a workload did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the repetition, seconds.
    pub wall_s: f64,
    /// Wall time of each request, µs: the whole sweep on `dse-*`, or
    /// one graph text to verified cycles.
    pub latency_us: Vec<f64>,
    /// Design points completed and verified.
    pub points: u64,
    /// Design points attempted.
    pub attempted: u64,
    /// Design points that failed to evaluate or to verify.
    pub failed: u64,
    /// Simulated cycles of each distinct design.
    pub designs: Vec<u64>,
    /// Determinism digest.
    pub digest: u64,
}

/// Counts taken at layer boundaries during one traced repetition.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub candidates: u64,
    pub artifacts: u64,
    pub translate_calls: u64,
    pub graph_nodes: u64,
    pub tensor_nodes: u64,
    pub passes_run: u64,
    pub seal_calls: u64,
    pub seal_hits: u64,
    pub sealed: u64,
    pub sealed_bytes: u64,
    pub sim_runs: u64,
    pub sim_cycles: u64,
    pub sim_fires: u64,
    pub submitted: u64,
    pub coalesced: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub result_puts: u64,
    pub quarantined: u64,
    pub store_bytes: u64,
}

/// The traced run's span log plus its boundary counts.
#[derive(Default)]
pub struct Tracer {
    pub rec: Recorder,
    pub counts: Counts,
}

impl Tracer {
    /// Seal through the compile cache inside a `core.seal` span,
    /// counting hits and the size of each newly sealed artifact.
    pub fn seal(
        &mut self,
        acc: &muir_core::Accelerator,
    ) -> Result<Arc<CompiledAccel>, muir_core::verify::GraphError> {
        let before = cache_stats();
        let comp = self
            .rec
            .span("core.seal", || CompiledAccel::compile_cached(acc))?;
        let after = cache_stats();
        self.counts.seal_calls += 1;
        self.counts.seal_hits += after.hits - before.hits;
        if after.misses > before.misses {
            self.counts.sealed += 1;
            self.counts.sealed_bytes += comp.size_bytes() as u64;
        }
        Ok(comp)
    }
}

enum Bench {
    Dse(dse::Dse),
    Tensor(tensor::Tensor),
}

impl Bench {
    fn setup(workload: &str, seed: u64, work: &Path, rec: Option<&mut Recorder>) -> Bench {
        match workload {
            "dse-cold" | "dse-warm" => Bench::Dse(dse::setup(seed, work, rec)),
            _ => Bench::Tensor(tensor::setup(seed, rec)),
        }
    }

    fn rep(&self, tracer: Option<&mut Tracer>) -> Rep {
        match self {
            Bench::Dse(d) => d.rep(tracer),
            Bench::Tensor(t) => t.rep(tracer),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let num = |flag: &str, v: String| -> Result<u64, String> {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} must be a whole number, got `{v}`"))
    };
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be between 1 and 3600".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    telemetry::set_enabled(false);
    let root = repo_root();
    let out_dir = root.join(".perfbench");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        std::process::exit(2);
    }
    println!("{}", meta_json(&args, &root));

    let mut tracer = args.trace.then(Tracer::default);

    // Set-up: the build, a fixed number of times (the last instance is
    // the one measured), then on `dse-warm` the store-filling sweep once.
    let mut build_s = Vec::with_capacity(SETUPS);
    let mut build_us = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let base = tracer.as_ref().map_or(0, |t| t.rec.spans().len());
        let t0 = Instant::now();
        let b = Bench::setup(
            &args.workload,
            args.seed,
            &work.0,
            tracer.as_mut().map(|t| &mut t.rec),
        );
        build_s.push(t0.elapsed().as_secs_f64());
        if let Some(t) = &tracer {
            build_us.push(
                trace::by_name(t.rec.since(base), base)
                    .get("workloads.build")
                    .map_or(0.0, |v| v.0),
            );
        }
        built = Some(b);
    }
    let mut bench = built.expect("SETUPS is positive");
    let mut fill_s = 0.0;
    let mut setup_digests = Vec::new();
    let mut setup_failed = 0;
    if let (Bench::Dse(d), "dse-warm") = (&mut bench, args.workload.as_str()) {
        let t0 = Instant::now();
        d.fill();
        fill_s = t0.elapsed().as_secs_f64();
        setup_digests.extend(d.cold_digest);
        setup_failed += d.setup_failed;
    }
    let setup_s = median(&build_s) + fill_s;
    println!(
        "setup: median build {:.6} s of {SETUPS}, store fill {fill_s:.3} s",
        median(&build_s)
    );

    // Measure: whole repetitions, untraced, alternating with traced ones
    // when tracing, while the next one is expected to end within the
    // time; at least one of each.
    let budget = Duration::from_secs(args.seconds);
    let t_run = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut orphans = 0;
    loop {
        match tracer.as_mut().filter(|_| traced.len() < untraced.len()) {
            Some(t) => {
                t.counts = Counts::default();
                let base = t.rec.spans().len();
                let root_span = t.rec.enter("bench.rep");
                telemetry::set_enabled(true);
                telemetry::reset();
                let tele_origin = t.rec.now_ns();
                let rep = bench.rep(Some(t));
                telemetry::set_enabled(false);
                t.rec.exit(root_span);
                orphans += t.rec.import(
                    &telemetry::spans(),
                    tele_origin,
                    &SERVICE_SPANS,
                    "service.drain",
                );
                samples.push(layer_sample(t.rec.since(base), base, &t.counts));
                traced.push(rep);
            }
            None => untraced.push(bench.rep(None)),
        }
        let elapsed = t_run.elapsed();
        let mean_rep = elapsed / (untraced.len() + traced.len()) as u32;
        if elapsed + mean_rep > budget && (tracer.is_none() || !traced.is_empty()) {
            break;
        }
    }

    // Correctness: no failed point, and every repetition (and, warm, the
    // store-filling sweep) produced the same digest.
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum::<u64>() + setup_failed;
    let digest = untraced[0].digest;
    let digests_agree =
        all.iter().all(|r| r.digest == digest) && setup_digests.iter().all(|&d| d == digest);
    if !digests_agree {
        eprintln!(
            "perfbench: digests disagree: reps {:x?}, set-up sweeps {:x?}",
            all.iter().map(|r| r.digest).collect::<Vec<_>>(),
            setup_digests
        );
    }
    let correct = failed == 0 && digests_agree;
    println!(
        "digest: {digest:#018x} ({} untraced + {} traced repetitions{}, {})",
        untraced.len(),
        traced.len(),
        if setup_digests.is_empty() {
            String::new()
        } else {
            format!(", {} cold set-up sweeps", setup_digests.len())
        },
        if digests_agree {
            "all agree"
        } else {
            "DISAGREE"
        }
    );

    let metrics: Vec<(&str, &str, f64)> = if let Some(t) = &tracer {
        let mut m = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let v: Vec<f64> = samples
                .iter()
                .map(|s| s.get(name).copied().unwrap_or(0.0))
                .collect();
            m.insert(name, median(&v));
        }
        m.insert("workloads.build_us", median(&build_us));
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        m.insert("trace.overhead_ratio", wall(&traced) / wall(&untraced));
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, t.rec.chrome_json()) {
            Ok(()) => println!("trace: {} spans -> {}", t.rec.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        if orphans > 0 {
            eprintln!("perfbench: {orphans} service spans fell outside any drain span");
        }
        PER_LAYER.iter().map(|&(n, u)| (n, u, m[n])).collect()
    } else {
        let m = end_to_end(&untraced, setup_s);
        END_TO_END.iter().map(|&(n, u)| (n, u, m[n])).collect()
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    drop(work); // `exit` runs no destructors
    if !correct {
        std::process::exit(1);
    }
}

/// End-to-end metrics from the untraced repetitions.
fn end_to_end(reps: &[Rep], setup_s: f64) -> BTreeMap<&'static str, f64> {
    let mut lat: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    println!(
        "latency: {} requests over {} repetitions, p95 has {} beyond it{}",
        lat.len(),
        reps.len(),
        stats::beyond(lat.len(), 95),
        if stats::tail_resolved(lat.len(), 95) {
            ""
        } else {
            " (fewer than ten: the tail is unresolved)"
        }
    );
    // Work per wall second over the whole run. This mean moves smoothly
    // with how much of the run other load slowed the machine; a median
    // of a few repetitions jumps between the slowed and unslowed speed,
    // and each request's fastest repetition depends on whether the run
    // caught an unslowed moment, which spread more across runs.
    let wall_s: f64 = reps.iter().map(|r| r.wall_s).sum();
    let points: u64 = reps.iter().map(|r| r.points).sum();
    BTreeMap::from([
        ("setup_s", setup_s),
        ("points_per_s", points as f64 / wall_s),
        ("latency_p50_ms", percentile(&lat, 50).unwrap_or(0.0) / 1e3),
        ("latency_p95_ms", percentile(&lat, 95).unwrap_or(0.0) / 1e3),
        ("peak_rss_mb", peak_rss_kib() as f64 / 1024.0),
        ("accel_cycles_geomean", geomean(&reps[0].designs)),
    ])
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer values of one traced repetition.
fn layer_sample(spans: &[trace::Span], base: usize, c: &Counts) -> BTreeMap<&'static str, f64> {
    let named = trace::by_name(spans, base);
    let own = |n: &str| named.get(n).map_or(0.0, |v| v.0);
    let incl = |n: &str| named.get(n).map_or(0.0, |v| v.1);
    let sim_us = own("service.simulate") + own("service.retry") + own("sim.simulate");
    let f = |v: u64| v as f64;
    BTreeMap::from([
        ("frontend.tensor.parse_us", own("frontend.tensor.parse")),
        ("frontend.tensor.lower_us", own("frontend.tensor.lower")),
        ("frontend.tensor.eval_us", own("frontend.tensor.eval")),
        ("frontend.tensor.nodes", f(c.tensor_nodes)),
        ("frontend.translate_us", own("frontend.translate")),
        ("frontend.translate_calls", f(c.translate_calls)),
        ("frontend.graph_nodes", f(c.graph_nodes)),
        ("uopt.run_us", own("uopt.run")),
        ("uopt.passes_run", f(c.passes_run)),
        ("core.seal_us", own("core.seal")),
        (
            "core.seal_cache_hit_ratio",
            ratio(f(c.seal_hits), f(c.seal_calls)),
        ),
        (
            "core.artifact_kib",
            ratio(f(c.sealed_bytes), f(c.sealed)) / 1024.0,
        ),
        ("rtl.cost_us", own("rtl.cost")),
        ("mir.reference_us", own("mir.reference")),
        ("sim.busy_us", sim_us),
        ("sim.runs", f(c.sim_runs)),
        ("sim.cycles", f(c.sim_cycles)),
        ("sim.fires", f(c.sim_fires)),
        ("sim.ns_per_fire", ratio(sim_us * 1e3, f(c.sim_fires))),
        ("sim.ns_per_cycle", ratio(sim_us * 1e3, f(c.sim_cycles))),
        ("store.read_us", own("service.store_probe")),
        ("store.result_hits", f(c.result_hits)),
        ("store.result_puts", f(c.result_puts)),
        (
            "store.hit_ratio",
            ratio(f(c.result_hits), f(c.result_hits + c.result_misses)),
        ),
        ("store.disk_kib", f(c.store_bytes) / 1024.0),
        ("store.quarantined", f(c.quarantined)),
        ("service.drain_us", incl("service.drain")),
        ("service.group_us", own("service.group")),
        ("service.self_us", own("service.drain")),
        (
            "service.coalesced_ratio",
            ratio(f(c.coalesced), f(c.submitted)),
        ),
        ("dse.self_us", own("dse.explore")),
        ("dse.artifact_ratio", ratio(f(c.artifacts), f(c.candidates))),
        (
            "trace.unattributed_ratio",
            ratio(own("bench.rep") + own("bench.step"), incl("bench.rep")),
        ),
    ])
}

/// Peak resident set of this process, KiB (`VmHWM`).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// First line of a tool's `--version`-style output, or `unknown`.
fn tool_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        // Never report an enclosing repository's commit.
        .env("GIT_CEILING_DIRECTORIES", dir.parent().unwrap_or(dir))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Content hash of the measured sources (`crates/` and the workspace
/// manifests), which names the code when no commit is available.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = muir_core::ContentHasher::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.push_str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
            h.push(&bytes);
        }
    }
    h.finish()
}

fn meta_json(args: &Args, root: &Path) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"source_digest\": \"{:#018x}\", \"compile_cache_capacity\": {}, \"dse_budget\": {}, \
         \"tensor_round\": {}, \"setup_builds\": {SETUPS}, \"threads\": 1}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        esc(&tool_line("rustc", &["-V"], root)),
        esc(&tool_line("git", &["rev-parse", "HEAD"], root)),
        source_digest(root),
        cache_stats().capacity,
        dse::BUDGET,
        tensor::ROUND,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_bench::profile::{parse_json, Json};

    /// BENCHMARK.json names exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc = parse_json(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(ws)) = doc.get("workloads") else {
            panic!("workloads is not an array");
        };
        let ws: Vec<&str> = ws
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(ws, WORKLOADS);
    }

    #[test]
    fn every_layer_metric_has_a_sample_or_a_run_level_value() {
        let s = layer_sample(&[], 0, &Counts::default());
        for (name, _) in PER_LAYER {
            assert!(
                s.contains_key(name)
                    || ["workloads.build_us", "trace.overhead_ratio"].contains(&name),
                "{name} has no source"
            );
        }
    }
}
