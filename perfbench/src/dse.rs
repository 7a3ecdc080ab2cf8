//! `dse-cold` and `dse-warm`: a seeded `muir_bench::dse::explore` sweep
//! over every registry workload, against a fresh empty store (cold) or
//! a store that set-up filled (warm).
//!
//! The untraced repetition calls `explore` itself. The traced repetition
//! makes the same calls `explore` makes, through the same public
//! functions in the same order, each wrapped in a span; its digest must
//! equal the untraced one, which pins the two to the same work.

use crate::stats::Digest;
use crate::trace::Recorder;
use crate::{Counts, Rep, Tracer};
use muir_bench::dse::{explore, pareto_front, DseParams};
use muir_bench::service::{EvalJob, EvalService, ServiceConfig};
use muir_core::compiled::CompiledAccel;
use muir_core::ContentHasher;
use muir_frontend::{translate, FrontendConfig};
use muir_rtl::cost::{estimate, Tech};
use muir_sim::SimConfig;
use muir_store::Store;
use muir_uopt::config::PassSpace;
use muir_workloads::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Candidates per workload: the `experiments dse` default, on both
/// workloads. The sweep is 576 candidates on about 550 distinct
/// artifacts, so sealing cycles through the 64-entry compile cache as a
/// real sweep does, and each workload's one reference run is shared by
/// 24 candidates. A cold sweep takes 20–30 s on a 2-vCPU host.
pub const BUDGET: u64 = 24;

/// One design point as the digest and the metrics see it.
struct Point {
    index: u64,
    config_hash: u64,
    artifact: u64,
    cycles: u64,
    end_state: u64,
}

/// A set-up sweep: the registry workloads and the seeded parameters.
pub struct Dse {
    workloads: Vec<Workload>,
    params: DseParams,
    work: PathBuf,
    /// The store set-up filled (warm) — `None` for cold, which opens a
    /// fresh store per repetition.
    warm_store: Option<PathBuf>,
    /// Digest of the store-filling cold sweep (warm only).
    pub cold_digest: Option<u64>,
    /// Failures in the store-filling sweep (warm only).
    pub setup_failed: u64,
}

/// Build the sweep: the registry workloads and the seeded parameters.
/// A warm sweep also needs [`Dse::fill`], once.
pub fn setup(seed: u64, work: &Path, rec: Option<&mut Recorder>) -> Dse {
    let build = || muir_workloads::all();
    let workloads = match rec {
        Some(r) => r.span("workloads.build", build),
        None => build(),
    };
    Dse {
        workloads,
        params: DseParams {
            seed: muir_core::rng::SplitMix64::salted(seed, 0xd5e).next_u64(),
            budget: BUDGET,
            threads: 1,
        },
        work: work.to_path_buf(),
        warm_store: None,
        cold_digest: None,
        setup_failed: 0,
    }
}

impl Dse {
    /// Fill a store with one cold sweep; later repetitions replay it warm.
    pub fn fill(&mut self) {
        let store = self.work.join("warm-store");
        let _ = std::fs::remove_dir_all(&store);
        let fill = self.sweep(&store, None);
        self.cold_digest = Some(fill.digest);
        self.setup_failed = fill.failed;
        self.warm_store = Some(store);
    }

    /// One repetition: the whole sweep, traced or not.
    pub fn rep(&self, tracer: Option<&mut Tracer>) -> Rep {
        match &self.warm_store {
            Some(store) => self.sweep(store, tracer),
            None => {
                let store = self.work.join("cold-store");
                let _ = std::fs::remove_dir_all(&store);
                let rep = self.sweep(&store, tracer);
                let _ = std::fs::remove_dir_all(&store);
                rep
            }
        }
    }

    fn sweep(&self, store: &Path, mut tracer: Option<&mut Tracer>) -> Rep {
        let t0 = Instant::now();
        let mut rep = Rep::default();
        let mut digest = Digest::new("dse");
        let mut designs: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for (wi, w) in self.workloads.iter().enumerate() {
            let result = match tracer.as_deref_mut() {
                Some(t) => {
                    let idx = t.rec.enter("dse.explore");
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        explore_traced(w, &self.params, store, t)
                    }));
                    t.rec.exit(idx);
                    r
                }
                None => catch_unwind(AssertUnwindSafe(|| {
                    let (front, _) = explore(w, &self.params, Some(store));
                    Ok(front
                        .candidates
                        .iter()
                        .map(|c| Point {
                            index: c.index,
                            config_hash: c.config_hash,
                            artifact: c.artifact,
                            cycles: c.cycles,
                            end_state: c.end_state,
                        })
                        .collect())
                })),
            };
            rep.attempted += self.params.budget;
            match result {
                Ok(Ok(points)) => {
                    for p in points {
                        digest.point(w.name, design_id(&p), p.cycles, p.end_state);
                        designs.insert((wi, p.artifact), p.cycles);
                        rep.points += 1;
                    }
                }
                Ok(Err(e)) => {
                    eprintln!("dse: {}: {e}", w.name);
                    rep.failed += self.params.budget;
                    digest.failure(w.name, wi as u64);
                }
                Err(_) => {
                    rep.failed += self.params.budget;
                    digest.failure(w.name, wi as u64);
                }
            }
        }
        rep.designs = designs.into_values().collect();
        rep.digest = digest.finish();
        rep.wall_s = t0.elapsed().as_secs_f64();
        // The request is the whole sweep, as `experiments dse --all`
        // makes it: the 24 per-workload `explore` times differ by three
        // orders of magnitude and move with the seed, so percentiles
        // over them would swap workloads between runs.
        rep.latency_us.push(rep.wall_s * 1e6);
        if let Some(t) = tracer {
            t.counts.store_bytes += dir_bytes(store);
        }
        rep
    }
}

/// A design point's id: its knob assignment and the artifact it sealed to.
fn design_id(p: &Point) -> u64 {
    let mut h = ContentHasher::new();
    h.push_u64(p.index);
    h.push_u64(p.config_hash);
    h.push_u64(p.artifact);
    h.finish()
}

/// `explore`'s per-workload salt (same tag, same fold).
fn workload_salt(name: &str) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("dse-workload-salt-v1");
    h.push_str(name);
    h.finish()
}

/// `explore`, step for step, with a span around each layer call and
/// counts at each boundary. Errors name the failing candidate instead
/// of panicking, so a failure counts against the run.
fn explore_traced(
    w: &Workload,
    params: &DseParams,
    store_root: &Path,
    t: &mut Tracer,
) -> Result<Vec<Point>, String> {
    let space = PassSpace::full();
    let indices = space.sample_indices(params.seed ^ workload_salt(w.name), params.budget);
    t.counts.candidates += indices.len() as u64;

    let mut groups: BTreeMap<u64, (Arc<CompiledAccel>, Vec<usize>)> = BTreeMap::new();
    let mut lowered = Vec::with_capacity(indices.len());
    for (slot, &i) in indices.iter().enumerate() {
        let cfg = space.nth(i);
        let pm = cfg.pipeline();
        let mut acc = t
            .rec
            .span("frontend.translate", || {
                translate(&w.module, &FrontendConfig::default())
            })
            .map_err(|e| format!("candidate {i}: translate: {e}"))?;
        t.counts.translate_calls += 1;
        t.counts.graph_nodes += node_count(&acc);
        let report = t
            .rec
            .span("uopt.run", || pm.run(&mut acc))
            .map_err(|e| format!("candidate {i}: uopt: {e}"))?;
        t.counts.passes_run += report.records.len() as u64;
        let comp = t
            .seal(&acc)
            .map_err(|e| format!("candidate {i}: seal: {e}"))?;
        let art = comp.content_hash();
        groups
            .entry(art)
            .or_insert_with(|| (comp, Vec::new()))
            .1
            .push(slot);
        lowered.push((i, cfg.config_hash(), art));
    }
    t.counts.artifacts += groups.len() as u64;

    let ref_mem = t
        .rec
        .span("mir.reference", || w.run_reference())
        .map_err(|e| format!("reference: {e}"))?;
    let mut measured: Vec<Option<(u64, u64, u64)>> = vec![None; indices.len()];
    for (art, (comp, members)) in &groups {
        let cost = t.rec.span("rtl.cost", || estimate(comp, Tech::FpgaArria10));
        let store = Some(Store::open(store_root));
        let mut svc = EvalService::new(
            comp.clone(),
            store,
            ServiceConfig {
                threads: params.threads,
                ..ServiceConfig::default()
            },
        );
        for _ in members {
            svc.submit(EvalJob {
                cfg: SimConfig::default(),
                args: Vec::new(),
                mem: w.fresh_memory(),
            });
        }
        let outcomes = t.rec.span("service.drain", || svc.drain());
        count_service(&mut t.counts, &svc, &outcomes);
        for (&slot, out) in members.iter().zip(&outcomes) {
            let r = out
                .outcome
                .as_ref()
                .map_err(|e| format!("artifact {art:#x}: {e}"))?;
            if !w.outputs_match(&ref_mem, &out.mem) {
                return Err(format!("artifact {art:#x}: outputs diverge from reference"));
            }
            measured[slot] = Some((r.cycles, out.end_state(), cost.area_score()));
        }
    }
    let points: Vec<(u64, u64)> = measured
        .iter()
        .map(|m| {
            let (cycles, _, area) = m.expect("every slot evaluated");
            (cycles, area)
        })
        .collect();
    std::hint::black_box(pareto_front(&points));
    Ok(lowered
        .into_iter()
        .zip(measured)
        .map(|((index, config_hash, artifact), m)| {
            let (cycles, end_state, _) = m.expect("every slot evaluated");
            Point {
                index,
                config_hash,
                artifact,
                cycles,
                end_state,
            }
        })
        .collect())
}

fn count_service(c: &mut Counts, svc: &EvalService, outcomes: &[muir_bench::service::EvalOutcome]) {
    let s = svc.stats();
    let st = svc.store_stats();
    c.submitted += s.submitted;
    c.coalesced += s.coalesced;
    c.sim_runs += s.recomputed + s.retries;
    c.result_hits += st.result_hits;
    c.result_misses += st.result_misses;
    c.result_puts += st.result_puts;
    c.quarantined += st.quarantined;
    for out in outcomes.iter().filter(|o| !o.from_store && !o.coalesced) {
        if let Ok(r) = &out.outcome {
            c.sim_cycles += r.cycles;
            c.sim_fires += r.stats.fires;
        }
    }
}

/// Dataflow nodes across every task of an accelerator.
pub fn node_count(acc: &muir_core::Accelerator) -> u64 {
    acc.tasks
        .iter()
        .map(|t| t.dataflow.nodes.len() as u64)
        .sum()
}

/// Bytes of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => dir_bytes(&e.path()),
            Ok(ft) if ft.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
