//! `tensor-text`: the interactive edit-to-cycles path. A closed loop
//! with one client takes each seeded graph text through parse → lower →
//! translate → seal → simulate, and verifies the result bit for bit
//! against the `muir-mir` interpreter and to 1e-4 against the graph
//! evaluator before taking the next text.

use crate::dse::node_count;
use crate::stats::Digest;
use crate::trace::Recorder;
use crate::{Rep, Tracer};
use muir_frontend::tensor::{gen_graph, TensorGraph, TensorLowerConfig};
use muir_frontend::{translate, FrontendConfig};
use muir_mir::interp::{Interp, Memory};
use muir_sim::{end_state_hash, simulate_compiled, SimConfig};
use std::collections::BTreeSet;
use std::time::Instant;

/// Distinct graphs per repetition. Far more than the 64-entry compile
/// cache holds, so no design is ever served from it; at least 200 keeps
/// ten samples beyond p95, and 1000 averages the seed-to-seed variation
/// of graph sizes down.
pub const ROUND: usize = 1000;

/// `gen_graph` size knob: graphs of 3–10 ops.
pub const GRAPH_SIZE: usize = 2;

/// One generated input: the graph text and its seeded input tensors.
struct Case {
    text: String,
    inputs: Vec<Vec<f32>>,
}

/// The set-up round of distinct graph texts.
pub struct Tensor {
    cases: Vec<Case>,
}

/// Generate `ROUND` distinct graph texts and their inputs from `seed`.
pub fn setup(seed: u64, rec: Option<&mut Recorder>) -> Tensor {
    let build = || {
        let mut rng = muir_core::rng::SplitMix64::salted(seed, 0x7e57);
        let mut seen = BTreeSet::new();
        let mut cases = Vec::with_capacity(ROUND);
        while cases.len() < ROUND {
            let gseed = rng.next_u64();
            let g = gen_graph(gseed, GRAPH_SIZE);
            if !seen.insert(g.content_hash()) {
                continue;
            }
            let mut inputs = muir_workloads::Prng::new(gseed);
            cases.push(Case {
                text: g.print(),
                inputs: g
                    .inputs
                    .iter()
                    .map(|i| inputs.f32_vec(i.dims.elems()))
                    .collect(),
            });
        }
        cases
    };
    let cases = match rec {
        Some(r) => r.span("workloads.build", build),
        None => build(),
    };
    Tensor { cases }
}

/// What one verified step produced.
struct Step {
    design: u64,
    cycles: u64,
    end_state: u64,
}

impl Tensor {
    /// One repetition: every graph of the round, in order.
    pub fn rep(&self, mut tracer: Option<&mut Tracer>) -> Rep {
        let t0 = Instant::now();
        let mut rep = Rep::default();
        let mut digest = Digest::new("tensor-text");
        for (k, case) in self.cases.iter().enumerate() {
            let started = Instant::now();
            let step_span = tracer.as_deref_mut().map(|t| t.rec.enter("bench.step"));
            let out = step(case, tracer.as_deref_mut());
            if let (Some(t), Some(idx)) = (tracer.as_deref_mut(), step_span) {
                t.rec.exit(idx);
            }
            rep.latency_us.push(started.elapsed().as_secs_f64() * 1e6);
            rep.attempted += 1;
            match out {
                Ok(s) => {
                    digest.point("graph", s.design, s.cycles, s.end_state);
                    rep.designs.push(s.cycles);
                    rep.points += 1;
                }
                Err(e) => {
                    eprintln!("tensor-text: graph {k}: {e}");
                    digest.failure("graph", k as u64);
                    rep.failed += 1;
                }
            }
        }
        rep.digest = digest.finish();
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep
    }
}

/// Run `f` in a span when tracing.
fn sp<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.rec.span(name, f),
        None => f(),
    }
}

/// Text to verified cycles for one graph.
fn step(case: &Case, mut t: Option<&mut Tracer>) -> Result<Step, String> {
    let g = sp(&mut t, "frontend.tensor.parse", || {
        TensorGraph::parse(&case.text)
    })
    .map_err(|e| format!("parse: {e}"))?;
    let low = sp(&mut t, "frontend.tensor.lower", || {
        g.lower(&TensorLowerConfig::default())
    })
    .map_err(|e| format!("lower: {e}"))?;
    let acc = sp(&mut t, "frontend.translate", || {
        translate(&low.module, &FrontendConfig::default())
    })
    .map_err(|e| format!("translate: {e}"))?;
    let comp = match t.as_deref_mut() {
        Some(t) => t.seal(&acc),
        None => muir_core::compiled::CompiledAccel::compile_cached(&acc),
    }
    .map_err(|e| format!("seal: {e}"))?;

    let mut init = Memory::from_module(&low.module);
    for (obj, data) in low.inputs.iter().zip(&case.inputs) {
        init.init_f32(*obj, data);
    }
    let mut mem = init.clone();
    let r = sp(&mut t, "sim.simulate", || {
        simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
    })
    .map_err(|e| format!("simulate: {e}"))?;
    let mut ref_mem = init;
    sp(&mut t, "mir.reference", || {
        Interp::new(&low.module).run_main(&mut ref_mem, &[])
    })
    .map_err(|e| format!("reference: {e}"))?;
    let got = mem.read_f32(low.output);
    let oracle = ref_mem.read_f32(low.output);
    if got.len() != oracle.len()
        || got
            .iter()
            .zip(&oracle)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("simulated output differs from the interpreter".to_string());
    }
    let want = sp(&mut t, "frontend.tensor.eval", || g.eval(&case.inputs))
        .map_err(|e| format!("graph eval: {e}"))?;
    if want.len() != got.len()
        || want.iter().zip(&got).any(|(x, y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() > 1e-4 * scale
        })
    {
        return Err("simulated output differs from the graph evaluator".to_string());
    }

    if let Some(t) = t {
        let c = &mut t.counts;
        c.translate_calls += 1;
        c.graph_nodes += node_count(&acc);
        c.tensor_nodes += g.nodes.len() as u64;
        c.sim_runs += 1;
        c.sim_cycles += r.cycles;
        c.sim_fires += r.stats.fires;
    }
    Ok(Step {
        design: g.content_hash(),
        cycles: r.cycles,
        end_state: end_state_hash(&r, &mem),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(seed: u64) -> u64 {
        let mut t = setup(seed, None);
        t.cases.truncate(3);
        let rep = t.rep(None);
        assert_eq!(rep.failed, 0);
        rep.digest
    }

    #[test]
    fn digest_is_stable_for_a_seed_and_moves_with_it() {
        let a = digest_of(1);
        assert_eq!(a, digest_of(1));
        assert_ne!(a, digest_of(2));
    }

    #[test]
    fn setup_graphs_are_distinct_and_seeded() {
        let a = setup(7, None);
        let b = setup(7, None);
        assert_eq!(a.cases.len(), ROUND);
        let texts: BTreeSet<&str> = a.cases.iter().map(|c| c.text.as_str()).collect();
        assert_eq!(texts.len(), ROUND, "graphs are distinct");
        assert!(a
            .cases
            .iter()
            .zip(&b.cases)
            .all(|(x, y)| x.text == y.text && x.inputs == y.inputs));
    }
}
