//! Bit-identity of [`ContentHasher`]: every content hash in the repo
//! (compile-cache keys, DSE artifact ids, store envelope checksums,
//! `PassConfig::config_hash`, the simulator's key hashes) folds through
//! it, so its output is part of the on-disk format.
//!
//! The pinned values were taken from the original byte-at-a-time fold;
//! the property test checks the hasher against that fold, kept here as
//! the reference, over random byte strings split at random points and
//! mixed with aligned and misaligned `push_u64` calls.

use muir_core::envelope::checksum;
use muir_core::rng::SplitMix64;
use muir_core::{content_hash, ContentHasher};
use muir_frontend::{translate, FrontendConfig};

/// Content hashes of three registry baselines (untransformed
/// translation), one per family shape: a loop nest, a butterfly
/// network, and a tensor graph.
#[test]
fn registry_baseline_hashes_are_pinned() {
    for (name, pinned) in [
        ("GEMM", 0xd4ed_8ac7_0ada_8205_u64),
        ("FFT", 0x7783_92fc_8529_016d),
        ("ATTN", 0xbfd4_e399_5ee6_f6f0),
    ] {
        let w = muir_workloads::by_name(name).expect("registry workload");
        let acc = translate(&w.module, &FrontendConfig::default()).expect("translates");
        assert_eq!(content_hash(&acc), pinned, "{name}: content hash drifted");
    }
}

/// The store envelope checksum of a seeded 1013-byte payload (not a
/// multiple of the 8-byte word, so the tail flush is covered).
#[test]
fn envelope_checksum_is_pinned() {
    assert_eq!(checksum(&payload(0xe7e1, 1013)), 0xf9c2_dff8_8c95_6080);
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut r = SplitMix64::new(seed);
    (0..len).map(|_| r.next_u64() as u8).collect()
}

/// The original fold: one byte at a time into a little-endian word,
/// absorbed through the splitmix64 finalizer every eighth byte, then
/// the partial word and the total length.
struct ByteFold {
    state: u64,
    pending: u64,
    npending: u32,
    len: u64,
}

fn mix(word: u64) -> u64 {
    let mut z = word.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ByteFold {
    fn new() -> ByteFold {
        ByteFold {
            state: 0x5ea1_0000_c0de_0001,
            pending: 0,
            npending: 0,
            len: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.pending |= u64::from(b) << (8 * self.npending);
            self.npending += 1;
            if self.npending == 8 {
                self.state = mix(self.state ^ self.pending);
                self.pending = 0;
                self.npending = 0;
            }
        }
        self.len += bytes.len() as u64;
    }

    fn finish(mut self) -> u64 {
        self.state = mix(self.state ^ self.pending);
        mix(self.state ^ self.len)
    }
}

#[test]
fn word_fold_matches_byte_fold() {
    let mut r = SplitMix64::new(0x5eed_f01d);
    for case in 0..500 {
        let mut fast = ContentHasher::new();
        let mut slow = ByteFold::new();
        let pieces = r.below(12);
        for _ in 0..pieces {
            if r.below(3) == 0 {
                let v = r.next_u64();
                fast.push_u64(v);
                slow.push(&v.to_le_bytes());
            } else {
                let bytes = payload(r.next_u64(), r.below(40) as usize);
                // Split the string at a random point: the hasher's
                // partial word must carry across calls.
                let cut = r.below(bytes.len() as u64 + 1) as usize;
                fast.push(&bytes[..cut]);
                fast.push(&bytes[cut..]);
                slow.push(&bytes);
            }
        }
        assert_eq!(fast.finish(), slow.finish(), "case {case}");
    }
}

#[test]
fn push_u64_matches_bytes_at_every_alignment() {
    for lead in 0..8 {
        let lead_bytes = payload(lead as u64, lead);
        let v = 0x0123_4567_89ab_cdef_u64;
        let mut fast = ContentHasher::new();
        fast.push(&lead_bytes);
        fast.push_u64(v);
        fast.push_u64(!v);
        let mut slow = ByteFold::new();
        slow.push(&lead_bytes);
        slow.push(&v.to_le_bytes());
        slow.push(&(!v).to_le_bytes());
        assert_eq!(fast.finish(), slow.finish(), "lead {lead}");
    }
}
