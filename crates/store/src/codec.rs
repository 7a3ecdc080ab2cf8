//! Text codec for memoized evaluation payloads.
//!
//! The store persists one [`StoredEval`] per result entry: the
//! [`SimResult`] (minus observability artifacts) *plus the final memory
//! image* — simulation mutates memory in place, so a warm hit must
//! restore the complete end state, not just the root results.
//!
//! The encoding is deliberately a line-oriented text format rather than a
//! struct dump: floats round-trip exactly via their bit pattern
//! (`f<8 hex>`), every collection is length-prefixed, and a reader
//! rejects rather than guesses on any mismatch — decode failures map to
//! `E-STORE-DECODE` and quarantine the entry. The reader makes one pass
//! over the bytes and accepts only what the encoder writes: numbers in
//! canonical decimal (no sign on counts, no leading zeros, no `-0`),
//! lowercase hex, `\n` after every line and nothing after the last
//! object. Value tokens contain no whitespace, so lists are
//! space-separated:
//!
//! ```text
//! b0 / b1        boolean
//! i-42           integer (decimal)
//! f3f800000      f32 by bit pattern (1.0)
//! p              poison
//! v(tok;tok)     vector
//! t2x3(tok;...)  tensor tile, row-major
//! ```

use muir_mir::interp::Memory;
use muir_mir::types::TensorShape;
use muir_mir::value::Value;
use muir_sim::{FaultCounts, SimResult, SimStats, StructStats};
use std::fmt::Write as _;

/// What one result entry stores: the outcome and the final memory image.
#[derive(Debug, Clone)]
pub struct StoredEval {
    /// The simulation outcome (`profile`/`trace` always `None`; traced
    /// runs are never memoized).
    pub result: SimResult,
    /// The memory image after the run.
    pub mem: Memory,
}

/// Equality over the observable fields. `SimResult` itself does not
/// implement `PartialEq` (its optional profile/trace are large
/// observability artifacts); stored evals never carry those, so this
/// compares everything the codec persists.
impl PartialEq for StoredEval {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.result, &other.result);
        let (sa, sb) = (&a.stats, &b.stats);
        a.cycles == b.cycles
            && a.results == b.results
            && sa.cycles == sb.cycles
            && sa.fires == sb.fires
            && sa.task_invocations == sb.task_invocations
            && sa.task_busy_cycles == sb.task_busy_cycles
            && sa.struct_stats == sb.struct_stats
            && sa.dram_fills == sb.dram_fills
            && sa.faults == sb.faults
            && sa.sched_visits == sb.sched_visits
            && self.mem == other.mem
    }
}

/// A decode failure: what the codec expected and what it found.
pub(crate) type DecodeError = String;

// ---- value tokens ----

fn put_value(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        Value::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        Value::F32(f) => {
            let _ = write!(out, "f{:08x}", f.to_bits());
        }
        Value::Poison => out.push('p'),
        Value::Vector(elems) => {
            out.push_str("v(");
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                put_value(out, e);
            }
            out.push(')');
        }
        Value::Tensor { shape, data } => {
            let _ = write!(out, "t{}x{}(", shape.rows, shape.cols);
            for (i, e) in data.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                put_value(out, e);
            }
            out.push(')');
        }
    }
}

fn put_u64_list(out: &mut String, key: &str, vals: &[u64]) {
    let _ = write!(out, "{key} {}", vals.len());
    for v in vals {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

fn put_value_list(out: &mut String, key: &str, vals: &[Value]) {
    let _ = write!(out, "{key} {}", vals.len());
    for v in vals {
        out.push(' ');
        put_value(out, v);
    }
    out.push('\n');
}

/// Encode a [`StoredEval`] into the store's result payload.
pub fn encode_eval(eval: &StoredEval) -> Vec<u8> {
    let mut out = String::new();
    out.push_str("stored-eval-v1\n");
    let r = &eval.result;
    let _ = writeln!(out, "cycles {}", r.cycles);
    put_value_list(&mut out, "results", &r.results);
    let s = &r.stats;
    let _ = writeln!(
        out,
        "stats {} {} {} {}",
        s.cycles, s.fires, s.dram_fills, s.sched_visits
    );
    put_u64_list(&mut out, "inv", &s.task_invocations);
    put_u64_list(&mut out, "busy", &s.task_busy_cycles);
    let _ = writeln!(out, "structs {}", s.struct_stats.len());
    for st in &s.struct_stats {
        let _ = writeln!(
            out,
            "struct {} {} {} {} {} {} {}",
            st.requests,
            st.elem_txns,
            st.conflict_stalls,
            st.hits,
            st.misses,
            st.writebacks,
            st.ecc_corrected
        );
    }
    let f = &s.faults;
    let _ = writeln!(
        out,
        "faults {} {} {} {} {} {}",
        f.token_bit_flip, f.token_drop, f.token_dup, f.stuck_handshake, f.mem_ecc, f.dram_timeout
    );
    put_u64_list(&mut out, "bases", &eval.mem.bases);
    let _ = writeln!(out, "objects {}", eval.mem.objects.len());
    for obj in &eval.mem.objects {
        put_value_list(&mut out, "obj", obj);
    }
    out.into_bytes()
}

/// One forward pass over a record's bytes. Every token is parsed in
/// place, so decoding allocates only the values it returns.
struct Reader<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> DecodeError {
        format!("{what} at byte {}", self.pos)
    }

    /// Consume `b` or fail with `what`.
    fn expect(&mut self, b: u8, what: &str) -> Result<(), DecodeError> {
        if self.s.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    /// Consume the literal `text`.
    fn literal(&mut self, text: &str) -> Result<(), DecodeError> {
        let end = self.pos + text.len();
        if self.s.get(self.pos..end) != Some(text.as_bytes()) {
            return Err(self.err(&format!("expected {text:?}")));
        }
        self.pos = end;
        Ok(())
    }

    /// A decimal `u64` exactly as `Display` writes it: at least one
    /// digit, no sign, no leading zero.
    fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d) = self.s.get(self.pos).filter(|b| b.is_ascii_digit()) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err(&format!("{what} overflows")))?;
            self.pos += 1;
        }
        match self.pos - start {
            0 => Err(self.err(&format!("expected {what}"))),
            1 => Ok(n),
            _ if self.s[start] == b'0' => Err(self.err(&format!("leading zero in {what}"))),
            _ => Ok(n),
        }
    }

    /// A line's `"<n>"` count of items, each at least two bytes (a
    /// separator and a token): a count the rest of the record cannot
    /// hold is rejected before anything is allocated for it.
    fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let n = self.u64(what)?;
        let room = (self.s.len() - self.pos) / 2;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= room)
            .ok_or_else(|| self.err(&format!("{what} {n} exceeds the record")))
    }

    /// A line `"<key> <n0> <n1> …"` of exactly `N` numbers.
    fn u64_line<const N: usize>(&mut self, key: &str) -> Result<[u64; N], DecodeError> {
        self.literal(key)?;
        let mut out = [0; N];
        for n in &mut out {
            self.expect(b' ', "' '")?;
            *n = self.u64(key)?;
        }
        self.expect(b'\n', "end of line")?;
        Ok(out)
    }

    /// A counted line `"<key> <n> <item0> … <item n-1>"`.
    fn counted<T>(
        &mut self,
        key: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        self.literal(key)?;
        self.expect(b' ', "' '")?;
        let n = self.count(key)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            self.expect(b' ', "' '")?;
            out.push(item(self)?);
        }
        self.expect(b'\n', "end of line")?;
        Ok(out)
    }

    /// One value token (table in the module docs).
    fn value(&mut self) -> Result<Value, DecodeError> {
        let Some(&tag) = self.s.get(self.pos) else {
            return Err(self.err("expected a value token"));
        };
        self.pos += 1;
        match tag {
            b'b' => match self.s.get(self.pos) {
                Some(&d @ (b'0' | b'1')) => {
                    self.pos += 1;
                    Ok(Value::Bool(d == b'1'))
                }
                _ => Err(self.err("bad bool token")),
            },
            b'i' => {
                let neg = self.s.get(self.pos) == Some(&b'-');
                self.pos += usize::from(neg);
                let mag = self.u64("int")?;
                let v = if neg {
                    // `-0` is not how `Display` writes zero.
                    0i64.checked_sub_unsigned(mag).filter(|_| mag != 0)
                } else {
                    i64::try_from(mag).ok()
                };
                v.map(Value::Int)
                    .ok_or_else(|| self.err("int out of range"))
            }
            b'f' => {
                let mut bits = 0u32;
                for _ in 0..8 {
                    let d = match self.s.get(self.pos) {
                        Some(&c @ b'0'..=b'9') => c - b'0',
                        Some(&c @ b'a'..=b'f') => c - b'a' + 10,
                        _ => return Err(self.err("bad f32 token")),
                    };
                    bits = bits << 4 | u32::from(d);
                    self.pos += 1;
                }
                Ok(Value::F32(f32::from_bits(bits)))
            }
            b'p' => Ok(Value::Poison),
            b'v' => Ok(Value::Vector(self.elems()?)),
            b't' => {
                let rows = self.dim()?;
                self.expect(b'x', "'x'")?;
                let cols = self.dim()?;
                let shape = TensorShape::new(rows, cols);
                let data = self.elems()?;
                if data.len() != shape.elems() as usize {
                    return Err(self.err(&format!("{shape} tensor with {} elements", data.len())));
                }
                Ok(Value::Tensor { shape, data })
            }
            _ => {
                self.pos -= 1;
                Err(self.err("unknown value token"))
            }
        }
    }

    /// A nonzero tensor dimension.
    fn dim(&mut self) -> Result<u8, DecodeError> {
        let n = self.u64("tensor dim")?;
        u8::try_from(n)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| self.err(&format!("bad tensor dim {n}")))
    }

    /// `"(tok;tok;…)"`, possibly empty.
    fn elems(&mut self) -> Result<Vec<Value>, DecodeError> {
        self.expect(b'(', "'('")?;
        let mut elems = Vec::new();
        if self.s.get(self.pos) == Some(&b')') {
            self.pos += 1;
            return Ok(elems);
        }
        loop {
            elems.push(self.value()?);
            match self.s.get(self.pos) {
                Some(b';') => self.pos += 1,
                Some(b')') => {
                    self.pos += 1;
                    return Ok(elems);
                }
                _ => return Err(self.err("unterminated list")),
            }
        }
    }
}

/// Decode a result payload back into a [`StoredEval`], in one pass.
///
/// The reader accepts exactly the bytes [`encode_eval`] writes: every
/// number in its canonical form, every line `\n`-terminated, nothing
/// after the last object. So any record it accepts re-encodes to itself.
///
/// # Errors
/// A human-readable description of the first mismatch; the store maps it
/// to `E-STORE-DECODE` and quarantines the entry.
pub fn decode_eval(payload: &[u8]) -> Result<StoredEval, DecodeError> {
    let mut r = Reader { s: payload, pos: 0 };
    r.literal("stored-eval-v1\n")
        .map_err(|_| "unknown payload header".to_string())?;
    let [cycles] = r.u64_line("cycles")?;
    let results = r.counted("results", Reader::value)?;
    let [s_cycles, fires, dram_fills, sched_visits] = r.u64_line("stats")?;
    let task_invocations = r.counted("inv", |r| r.u64("inv"))?;
    let task_busy_cycles = r.counted("busy", |r| r.u64("busy"))?;
    let [nstructs] = r.u64_line("structs")?;
    let mut struct_stats = Vec::new();
    for _ in 0..nstructs {
        let [requests, elem_txns, conflict_stalls, hits, misses, writebacks, ecc_corrected] =
            r.u64_line("struct")?;
        struct_stats.push(StructStats {
            requests,
            elem_txns,
            conflict_stalls,
            hits,
            misses,
            writebacks,
            ecc_corrected,
        });
    }
    let [token_bit_flip, token_drop, token_dup, stuck_handshake, mem_ecc, dram_timeout] =
        r.u64_line("faults")?;
    let bases = r.counted("bases", |r| r.u64("bases"))?;
    let [nobjects] = r.u64_line("objects")?;
    let mut objects = Vec::new();
    for _ in 0..nobjects {
        objects.push(r.counted("obj", Reader::value)?);
    }
    if r.pos != payload.len() {
        return Err(r.err("trailing bytes after the last object"));
    }
    Ok(StoredEval {
        result: SimResult {
            cycles,
            results,
            stats: SimStats {
                cycles: s_cycles,
                fires,
                dram_fills,
                sched_visits,
                task_invocations,
                task_busy_cycles,
                struct_stats,
                faults: FaultCounts {
                    token_bit_flip,
                    token_drop,
                    token_dup,
                    stuck_handshake,
                    mem_ecc,
                    dram_timeout,
                },
            },
            profile: None,
            trace: None,
        },
        mem: Memory { objects, bases },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_core::rng::SplitMix64;

    fn sample_eval() -> StoredEval {
        StoredEval {
            result: SimResult {
                cycles: 123,
                results: vec![
                    Value::Int(-7),
                    Value::Bool(true),
                    Value::F32(1.5),
                    Value::F32(f32::NEG_INFINITY),
                    Value::Poison,
                    Value::Vector(vec![Value::Int(1), Value::F32(0.25)]),
                    Value::Tensor {
                        shape: TensorShape::new(2, 2),
                        data: vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Poison],
                    },
                ],
                stats: SimStats {
                    cycles: 123,
                    fires: 456,
                    task_invocations: vec![1, 2, 3],
                    task_busy_cycles: vec![10, 20, 30],
                    struct_stats: vec![StructStats {
                        requests: 1,
                        elem_txns: 2,
                        conflict_stalls: 3,
                        hits: 4,
                        misses: 5,
                        writebacks: 6,
                        ecc_corrected: 7,
                    }],
                    dram_fills: 9,
                    faults: FaultCounts {
                        mem_ecc: 2,
                        ..FaultCounts::default()
                    },
                    sched_visits: 777,
                },
                profile: None,
                trace: None,
            },
            mem: Memory {
                objects: vec![
                    vec![Value::Int(5), Value::F32(-0.0)],
                    vec![],
                    vec![Value::Vector(vec![Value::Bool(false)])],
                ],
                bases: vec![0, 2, 2],
            },
        }
    }

    #[test]
    fn round_trips_exactly() {
        let eval = sample_eval();
        let decoded = decode_eval(&encode_eval(&eval)).unwrap();
        assert_eq!(decoded, eval);
        // -0.0 == 0.0 under PartialEq; check the bit pattern survived too.
        match (&decoded.mem.objects[0][1], &eval.mem.objects[0][1]) {
            (Value::F32(a), Value::F32(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let mut eval = sample_eval();
        let nan = f32::from_bits(0x7fc0_1234);
        eval.result.results = vec![Value::F32(nan)];
        let decoded = decode_eval(&encode_eval(&eval)).unwrap();
        match decoded.result.results[0] {
            Value::F32(f) => assert_eq!(f.to_bits(), 0x7fc0_1234),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_mangled_records() {
        let eval = sample_eval();
        let good = encode_eval(&eval);
        let text = String::from_utf8(good.clone()).unwrap();
        // Wrong header.
        assert!(decode_eval(b"stored-eval-v9\n").is_err());
        // Truncated record.
        assert!(decode_eval(&good[..good.len() / 2]).is_err());
        // Miscounted list.
        let bad = text.replacen("results 7", "results 8", 1);
        assert!(decode_eval(bad.as_bytes()).is_err());
        // Garbled value token.
        let bad = text.replacen("i-7", "q-7", 1);
        assert!(decode_eval(bad.as_bytes()).is_err());
    }

    /// Bit-exact equality over everything the codec persists. The
    /// encoding is injective (floats by bits, every list counted), so
    /// equal encodings mean equal evaluations — including NaN payloads
    /// and `-0.0`, which `PartialEq` on `f32` cannot tell apart.
    fn same(a: &StoredEval, b: &StoredEval) -> bool {
        encode_eval(a) == encode_eval(b)
    }

    /// A record with every value edge: extreme integers, a NaN payload,
    /// both zeros, poison, empty and nested vectors, a tensor.
    fn pinned_eval() -> StoredEval {
        let mut eval = sample_eval();
        eval.result.results = vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::F32(f32::from_bits(0x7fc0_1234)),
            Value::F32(-0.0),
            Value::F32(0.0),
            Value::Poison,
            Value::Vector(vec![]),
            Value::Vector(vec![Value::Vector(vec![Value::Bool(true)]), Value::Poison]),
            Value::Tensor {
                shape: TensorShape::new(1, 2),
                data: vec![Value::F32(1.0), Value::Int(-1)],
            },
        ];
        eval
    }

    /// `encode_eval(&pinned_eval())`, pinned as a literal: the
    /// `stored-eval-v1` bytes may not drift, or stores written by
    /// earlier builds would stop decoding.
    const PINNED: &str = "stored-eval-v1
cycles 123
results 10 i-9223372036854775808 i9223372036854775807 i0 f7fc01234 f80000000 f00000000 p v() v(v(b1);p) t1x2(f3f800000;i-1)
stats 123 456 9 777
inv 3 1 2 3
busy 3 10 20 30
structs 1
struct 1 2 3 4 5 6 7
faults 0 0 0 0 2 0
bases 3 0 2 2
objects 3
obj 2 i5 f80000000
obj 0
obj 1 v(b0)
";

    #[test]
    fn pinned_record_decodes_to_pinned_eval() {
        let decoded = decode_eval(PINNED.as_bytes()).unwrap();
        assert!(same(&decoded, &pinned_eval()), "{decoded:?}");
        assert_eq!(
            String::from_utf8(encode_eval(&pinned_eval())).unwrap(),
            PINNED
        );
        match &decoded.result.results[3] {
            Value::F32(f) => assert_eq!(f.to_bits(), 0x7fc0_1234),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn random_value(rng: &mut SplitMix64, depth: u32) -> Value {
        let scalar = |rng: &mut SplitMix64| match rng.below(8) {
            0 => Value::Bool(rng.below(2) == 1),
            1 => Value::Int(rng.next_u64() as i64),
            2 => Value::Int([i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize]),
            3 => Value::F32(f32::from_bits(rng.next_u64() as u32)),
            4 => Value::F32([0.0, -0.0, f32::NAN, f32::INFINITY][rng.below(4) as usize]),
            5 => Value::F32(f32::from_bits(
                0x7f80_0001 | rng.next_u64() as u32 & 0x803f_ffff,
            )),
            6 => Value::Poison,
            _ => Value::Int(rng.below(1000) as i64 - 500),
        };
        match rng.below(6) {
            0 if depth > 0 => Value::Vector(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            1 => {
                let shape = TensorShape::new(1 + rng.below(3) as u8, 1 + rng.below(3) as u8);
                let data = (0..shape.elems()).map(|_| scalar(rng)).collect();
                Value::Tensor { shape, data }
            }
            _ => scalar(rng),
        }
    }

    fn random_eval(rng: &mut SplitMix64) -> StoredEval {
        let u64s = |rng: &mut SplitMix64, n: u64| -> Vec<u64> {
            (0..n)
                .map(|_| match rng.below(3) {
                    0 => rng.next_u64(),
                    1 => u64::MAX,
                    _ => rng.below(100),
                })
                .collect()
        };
        let mut eval = sample_eval();
        eval.result.cycles = rng.next_u64();
        eval.result.results = (0..rng.below(5)).map(|_| random_value(rng, 2)).collect();
        let n = rng.below(4);
        eval.result.stats.task_invocations = u64s(rng, n);
        eval.result.stats.task_busy_cycles = u64s(rng, n);
        eval.result.stats.struct_stats = (0..rng.below(3))
            .map(|_| StructStats {
                requests: rng.next_u64(),
                misses: rng.below(10),
                ..StructStats::default()
            })
            .collect();
        eval.result.stats.faults.dram_timeout = rng.next_u64();
        eval.mem.objects = (0..rng.below(4))
            .map(|_| (0..rng.below(6)).map(|_| random_value(rng, 2)).collect())
            .collect();
        eval.mem.bases = u64s(rng, eval.mem.objects.len() as u64);
        eval
    }

    #[test]
    fn seeded_round_trip_is_bit_exact() {
        let mut rng = SplitMix64::new(0x5e_c0de);
        for case in 0..400 {
            let eval = random_eval(&mut rng);
            let bytes = encode_eval(&eval);
            let decoded = decode_eval(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(same(&decoded, &eval), "case {case}");
        }
    }

    /// Damage never panics the reader, and whatever it accepts is exactly
    /// what it was given: every proper prefix of a record is rejected,
    /// and a one-byte substitution either still decodes to the record
    /// its bytes spell or is rejected.
    #[test]
    fn damaged_records_are_rejected_or_decode_canonically() {
        let mut rng = SplitMix64::new(0xda_0a6e);
        let records: Vec<Vec<u8>> = [sample_eval(), pinned_eval()]
            .iter()
            .map(encode_eval)
            .chain((0..6).map(|_| encode_eval(&random_eval(&mut rng))))
            .collect();
        const ALPHABET: &[u8] = b"0123456789abfipvtx-+();: \n\r\0\xff";
        for bytes in &records {
            for cut in 0..bytes.len() {
                assert!(decode_eval(&bytes[..cut]).is_err(), "prefix {cut} accepted");
            }
            for _ in 0..1500 {
                let mut bad = bytes.clone();
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] = match rng.below(2) {
                    0 => ALPHABET[rng.below(ALPHABET.len() as u64) as usize],
                    _ => rng.next_u64() as u8,
                };
                if let Ok(eval) = decode_eval(&bad) {
                    assert_eq!(
                        encode_eval(&eval),
                        bad,
                        "byte {at} accepted as another record"
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let good = encode_eval(&sample_eval());
        for tail in [&b"obj 0\n"[..], b"\n", b" ", b"x"] {
            let bad = [good.as_slice(), tail].concat();
            let err = decode_eval(&bad).unwrap_err();
            assert!(err.contains("trailing bytes"), "{err}");
        }
    }

    #[test]
    fn non_canonical_numbers_are_rejected() {
        let text = String::from_utf8(encode_eval(&sample_eval())).unwrap();
        for (from, to) in [
            ("cycles 123", "cycles 0123"),
            ("cycles 123", "cycles +123"),
            ("i5 ", "i05 "),
            ("i5 ", "i-0 "),
            ("results 7", "results 07"),
            ("t2x2", "t0x2"),
            ("t2x2", "t2x3"),
            ("cycles 123", "cycles 99999999999999999999"),
        ] {
            assert!(text.contains(from), "{from}");
            let bad = text.replacen(from, to, 1);
            assert!(decode_eval(bad.as_bytes()).is_err(), "{to} accepted");
        }
        let bad = text.replacen("stats 123", "stats  123", 1);
        assert!(
            decode_eval(bad.as_bytes()).is_err(),
            "double space accepted"
        );
        let upper = text.replacen("f3fc00000", "f3FC00000", 1);
        assert_ne!(upper, text);
        assert!(
            decode_eval(upper.as_bytes()).is_err(),
            "uppercase hex accepted"
        );
    }

    #[test]
    fn value_tokens_are_whitespace_free() {
        for v in sample_eval().result.results {
            let mut s = String::new();
            put_value(&mut s, &v);
            assert!(!s.contains(' '), "{s}");
            let mut r = Reader {
                s: s.as_bytes(),
                pos: 0,
            };
            assert_eq!(r.value().unwrap(), v);
            assert_eq!(r.pos, s.len());
        }
    }
}
