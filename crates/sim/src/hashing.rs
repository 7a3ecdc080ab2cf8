//! Content hashes over simulation inputs and outcomes.
//!
//! The persistent result store keys memoized evaluations by
//! `(hash(artifact), hash(job))` and proves determinism by comparing
//! `hash(end state)` across cold, warm, and post-fault runs. Both sides
//! use the same splitmix64 fold ([`muir_core::ContentHasher`]) as the
//! compile cache, so "same bytes" means the same thing at every layer.
//!
//! Two normalization rules keep the keys honest:
//!
//! * **scheduler, threads, and exec mode are excluded** from
//!   [`config_hash`]: the determinism contract (DESIGN.md §9–§10, §14)
//!   guarantees bit-identical observables across `Dense`/`Ready`/
//!   `Parallel` at any thread count and across the `Interp`/`MicroOp`
//!   firing interpreters, so a result computed under one combination is
//!   a valid warm hit for any other;
//! * **`sched_visits` is excluded** from [`result_hash`]: it counts
//!   simulator effort, not hardware behaviour, and legitimately differs
//!   between schedulers.
//!
//! # Value encoding (v2)
//!
//! Values are hashed by their bits, as little-endian `u64` words: a tag
//! word, then the payload.
//!
//! | value | words |
//! |---|---|
//! | `Poison` | `0` |
//! | `Bool(b)` | `1`, `b as u64` |
//! | `Int(i)` | `2`, `i as u64` |
//! | `F32(x)` | `3`, `x.to_bits()` |
//! | `Vector(lanes)` | `4`, `len`, each lane |
//! | `Tensor { shape, data }` | `5`, `rows`, `cols`, `len`, each element |
//!
//! Every sequence (arguments, results, memory objects, lanes) is
//! prefixed with its length, so the encoding is injective. It is
//! strictly finer than the `Debug` text that v1 hashed: `-0.0` and
//! `0.0` differ, as do NaNs with different payloads. The domain tags
//! are `job-v2`, `res-v2` and `end-v2`. A store written by a v1 build
//! holds results under v1 job keys, so every lookup misses and the
//! point is simulated again: an old store costs time, never a wrong
//! answer.

use crate::{SimConfig, SimResult};
use muir_core::ContentHasher;
use muir_mir::interp::Memory;
use muir_mir::value::Value;

fn push_value(h: &mut ContentHasher, v: &Value) {
    match v {
        Value::Poison => h.push_u64(0),
        Value::Bool(b) => {
            h.push_u64(1);
            h.push_u64(u64::from(*b));
        }
        Value::Int(i) => {
            h.push_u64(2);
            h.push_u64(*i as u64);
        }
        Value::F32(x) => {
            h.push_u64(3);
            h.push_u64(u64::from(x.to_bits()));
        }
        Value::Vector(lanes) => {
            h.push_u64(4);
            push_values(h, lanes);
        }
        Value::Tensor { shape, data } => {
            h.push_u64(5);
            h.push_u64(u64::from(shape.rows));
            h.push_u64(u64::from(shape.cols));
            push_values(h, data);
        }
    }
}

fn push_values(h: &mut ContentHasher, vs: &[Value]) {
    h.push_u64(vs.len() as u64);
    for v in vs {
        push_value(h, v);
    }
}

fn push_memory(h: &mut ContentHasher, mem: &Memory) {
    h.push_u64(mem.bases.len() as u64);
    for b in &mem.bases {
        h.push_u64(*b);
    }
    h.push_u64(mem.objects.len() as u64);
    for obj in &mem.objects {
        push_values(h, obj);
    }
}

/// Hash the parts of a [`SimConfig`] that can affect simulation
/// observables. Scheduler choice, thread count, and exec mode are
/// deliberately excluded (see module docs); tracing is excluded too
/// because traces are never stored — the store layer refuses tracing
/// configs instead.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("cfg-v1");
    h.push_u64(cfg.max_cycles);
    h.push_u64(cfg.window);
    h.push_f64_bits(cfg.period_ns);
    h.push_u64(cfg.deadlock_cycles);
    h.push_u64(u64::from(cfg.databox_entries));
    h.push_u64(u64::from(cfg.elastic_depth));
    h.push_u64(cfg.faults.seed);
    h.push_u64(cfg.faults.specs.len() as u64);
    for spec in &cfg.faults.specs {
        h.push_str(spec.class.name());
        h.push_u64(u64::from(spec.rate_ppm));
        h.push_u64(u64::from(spec.max_events));
    }
    h.finish()
}

/// Hash one evaluation job: configuration plus the run's actual inputs
/// (root arguments and the initial memory image). This is the `job` half
/// of the store's result key — strictly finer than hashing the config
/// alone, so two design points that share a config but differ in data can
/// never collide onto one memoized result.
pub fn job_hash(cfg: &SimConfig, args: &[Value], mem: &Memory) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("job-v2");
    h.push_u64(config_hash(cfg));
    push_values(&mut h, args);
    push_memory(&mut h, mem);
    h.finish()
}

/// Hash a simulation outcome: cycles, root results, and every stat that is
/// a hardware observable. `sched_visits`, `profile`, and `trace` are
/// excluded (simulator-effort / observability artifacts, not behaviour).
pub fn result_hash(r: &SimResult) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("res-v2");
    h.push_u64(r.cycles);
    push_values(&mut h, &r.results);
    let s = &r.stats;
    h.push_u64(s.cycles);
    h.push_u64(s.fires);
    h.push_u64(s.task_invocations.len() as u64);
    for v in &s.task_invocations {
        h.push_u64(*v);
    }
    h.push_u64(s.task_busy_cycles.len() as u64);
    for v in &s.task_busy_cycles {
        h.push_u64(*v);
    }
    h.push_u64(s.struct_stats.len() as u64);
    for st in &s.struct_stats {
        h.push_u64(st.requests);
        h.push_u64(st.elem_txns);
        h.push_u64(st.conflict_stalls);
        h.push_u64(st.hits);
        h.push_u64(st.misses);
        h.push_u64(st.writebacks);
        h.push_u64(st.ecc_corrected);
    }
    h.push_u64(s.dram_fills);
    h.push_u64(s.faults.token_bit_flip);
    h.push_u64(s.faults.token_drop);
    h.push_u64(s.faults.token_dup);
    h.push_u64(s.faults.stuck_handshake);
    h.push_u64(s.faults.mem_ecc);
    h.push_u64(s.faults.dram_timeout);
    h.finish()
}

/// Hash the complete end state of an evaluation: the outcome plus the
/// final memory image. This is what the store's differential campaign
/// compares across cold / warm / post-fault runs.
pub fn end_state_hash(r: &SimResult, mem: &Memory) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("end-v2");
    h.push_u64(result_hash(r));
    push_memory(&mut h, mem);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, SchedulerKind};

    #[test]
    fn config_hash_is_pinned() {
        assert_eq!(config_hash(&SimConfig::default()), 0x0d7f_94cb_e1ed_f971);
    }

    #[test]
    fn config_hash_ignores_scheduler_and_threads() {
        let base = SimConfig::default();
        let h = config_hash(&base);
        for sched in [
            SchedulerKind::Dense,
            SchedulerKind::Ready,
            SchedulerKind::Parallel,
        ] {
            for threads in [1, 2, 8] {
                for exec in [ExecMode::Interp, ExecMode::MicroOp] {
                    let cfg = base
                        .clone()
                        .with_scheduler(sched)
                        .with_threads(threads)
                        .with_exec(exec);
                    assert_eq!(config_hash(&cfg), h, "{sched:?} @ {threads} / {exec:?}");
                }
            }
        }
    }

    #[test]
    fn config_hash_sees_every_observable_knob() {
        let base = SimConfig::default();
        let h = config_hash(&base);
        let mut c = base.clone();
        c.max_cycles += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.window += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.deadlock_cycles += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.databox_entries += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.elastic_depth += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.faults = crate::FaultPlan::single(crate::FaultClass::TokenDrop, 1);
        assert_ne!(config_hash(&c), h);
    }

    #[test]
    fn job_hash_sees_args_and_memory() {
        let cfg = SimConfig::default();
        let mem = Memory {
            objects: vec![],
            bases: vec![],
        };
        let h = job_hash(&cfg, &[], &mem);
        assert_eq!(job_hash(&cfg, &[], &mem), h, "deterministic");
        assert_ne!(job_hash(&cfg, &[Value::Int(1)], &mem), h, "args");
        let mem2 = Memory {
            objects: vec![vec![Value::Int(7)]],
            bases: vec![0],
        };
        assert_ne!(job_hash(&cfg, &[], &mem2), h, "memory");
    }

    fn mem_of(objects: Vec<Vec<Value>>) -> Memory {
        Memory {
            bases: (0..objects.len() as u64).map(|i| i * 64).collect(),
            objects,
        }
    }

    #[test]
    fn job_hash_separates_values_by_kind_and_bits() {
        let cfg = SimConfig::default();
        let job = |v: Value| job_hash(&cfg, &[], &mem_of(vec![vec![v]]));
        let scalars = [
            Value::Int(0),
            Value::Bool(false),
            Value::F32(0.0),
            Value::Poison,
        ];
        for (i, a) in scalars.iter().enumerate() {
            for b in &scalars[i + 1..] {
                assert_ne!(job(a.clone()), job(b.clone()), "{a:?} vs {b:?}");
            }
        }
        assert_ne!(job(Value::F32(0.0)), job(Value::F32(-0.0)), "signed zero");
        let lanes = vec![Value::F32(1.0), Value::F32(2.0)];
        assert_ne!(
            job(Value::Vector(lanes.clone())),
            job(Value::Tensor {
                shape: muir_mir::types::TensorShape::new(1, 2),
                data: lanes,
            }),
            "vector vs 1x2 tensor"
        );
        let a = mem_of(vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3)],
        ]);
        let mut b = a.clone();
        b.objects[0][1] = Value::Int(4);
        assert_ne!(
            job_hash(&cfg, &[], &a),
            job_hash(&cfg, &[], &b),
            "one element"
        );
    }

    #[test]
    fn end_state_hash_is_a_function_of_content() {
        let r = SimResult {
            cycles: 3,
            results: vec![Value::F32(f32::NAN)],
            stats: crate::SimStats::default(),
            profile: None,
            trace: None,
        };
        let mem = mem_of(vec![vec![Value::F32(0.5), Value::Poison], vec![]]);
        assert_eq!(end_state_hash(&r, &mem.clone()), end_state_hash(&r, &mem));
    }

    #[test]
    fn result_hash_ignores_sched_visits_and_observability() {
        let mut r = SimResult {
            cycles: 10,
            results: vec![Value::Int(3)],
            stats: crate::SimStats {
                cycles: 10,
                fires: 5,
                sched_visits: 100,
                ..crate::SimStats::default()
            },
            profile: None,
            trace: None,
        };
        let h = result_hash(&r);
        r.stats.sched_visits = 999_999;
        assert_eq!(result_hash(&r), h, "sched_visits is simulator effort");
        r.cycles = 11;
        assert_ne!(result_hash(&r), h, "cycles are observable");
    }
}
