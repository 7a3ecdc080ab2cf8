//! The enumerable μopt knob surface for design-space exploration.
//!
//! A [`PassConfig`] is one point in the space of μopt pipelines the DSE
//! driver explores: every knob the paper's passes expose — task-queue
//! FIFO depth (Pass 1), execution-tile count and scope (Pass 2), memory
//! localization (Pass 3), scratchpad/cache banking factors (Pass 4), and
//! the op-fusion clock-period budget that decides pipeline-register
//! placement (Pass 5) — quantized to a small set of levels per knob.
//!
//! [`PassSpace`] is the full cross product. Configs are addressable by a
//! mixed-radix index (`nth`), so seeded sampling is just seeded index
//! generation and the whole space is enumerable, deterministic, and
//! reproducible from `(seed, budget)` alone. Index 0 is always the
//! baseline (every knob off), so a sampled sweep always contains the
//! unoptimized anchor point.
//!
//! Two distinct configs can lower to the *same* accelerator (tiling a
//! workload with no spawned tasks is a no-op, fusing a graph with no
//! fusible chains changes nothing). Dedup therefore happens at two
//! levels: [`PassConfig::config_hash`] identifies the knob setting, and
//! the sealed artifact's content hash identifies the resulting hardware —
//! the DSE driver coalesces candidates whose artifacts collide.

use crate::passes::{
    CacheBanking, ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, TaskFilter,
    TaskQueueing,
};
use crate::PassManager;
use muir_core::rng::SplitMix64;
use muir_core::ContentHasher;
use std::fmt;

/// Task-queue FIFO depths (Pass 1). `0` keeps the frontend's baseline.
pub const QUEUE_DEPTHS: [u32; 4] = [0, 2, 8, 16];
/// Execution-tile counts (Pass 2). `1` disables tiling.
pub const TILE_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// Scratchpad bank counts (Pass 4). `1` keeps single-banked RAMs.
pub const SPAD_BANKS: [u32; 4] = [1, 2, 4, 8];
/// Cache bank counts (§6.4). `1` keeps the unified L1.
pub const CACHE_BANKS: [u32; 3] = [1, 2, 4];
/// Op-fusion clock-period budgets in ns (Pass 5): where pipeline
/// registers land after re-timing. `0.0` disables fusion entirely.
pub const FUSION_PERIODS_NS: [f64; 4] = [0.0, 1.5, muir_core::hw::BASELINE_PERIOD_NS, 8.0];

/// Which tasks execution tiling replicates (the enumerable subset of
/// [`TaskFilter`] — the name-matching variant is not a closed knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileScope {
    /// Cilk-style spawned task subtrees (a no-op without spawns).
    Spawned,
    /// Innermost loop tasks (§3.6's per-region tile count).
    LeafLoops,
}

impl TileScope {
    const ALL: [TileScope; 2] = [TileScope::Spawned, TileScope::LeafLoops];

    fn filter(self) -> TaskFilter {
        match self {
            TileScope::Spawned => TaskFilter::Spawned,
            TileScope::LeafLoops => TaskFilter::LeafLoops,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            TileScope::Spawned => "spawn",
            TileScope::LeafLoops => "leaf",
        }
    }
}

/// One point in the μopt design space: a complete knob assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PassConfig {
    /// Task-queue FIFO depth (0 = keep baseline; Pass 1).
    pub queue_depth: u32,
    /// Execution tiles per selected task (1 = no tiling; Pass 2).
    pub tiles: u32,
    /// Which tasks tiling replicates (irrelevant when `tiles == 1`).
    pub tile_scope: TileScope,
    /// Run memory localization (Pass 3 + Algorithm 2).
    pub localize: bool,
    /// Scratchpad banks (1 = untouched; Pass 4).
    pub spad_banks: u32,
    /// Cache banks (1 = untouched; §6.4).
    pub cache_banks: u32,
    /// Fusion clock-period budget in ns (0.0 = fusion off; Pass 5).
    pub fusion_period_ns: f64,
}

impl PassConfig {
    /// The all-knobs-off baseline ([`PassSpace::nth`] index 0).
    pub fn baseline() -> PassConfig {
        PassConfig {
            queue_depth: QUEUE_DEPTHS[0],
            tiles: TILE_COUNTS[0],
            tile_scope: TileScope::ALL[0],
            localize: false,
            spad_banks: SPAD_BANKS[0],
            cache_banks: CACHE_BANKS[0],
            fusion_period_ns: FUSION_PERIODS_NS[0],
        }
    }

    /// Whether this config applies no transformation at all.
    pub fn is_baseline(&self) -> bool {
        self.queue_depth == 0
            && self.tiles == 1
            && !self.localize
            && self.spad_banks == 1
            && self.cache_banks == 1
            && self.fusion_period_ns == 0.0
    }

    /// The pass pipeline realizing this config, in the canonical stack
    /// order (queueing → tiling → localization → banking → fusion, the
    /// same order as the Figure 17 stack). Knobs at their off level
    /// contribute no pass, so the baseline config is an empty pipeline.
    pub fn pipeline(&self) -> PassManager {
        let mut pm = PassManager::new();
        if self.queue_depth > 0 {
            pm.push(Box::new(TaskQueueing::all(self.queue_depth)));
        }
        if self.tiles > 1 {
            pm.push(Box::new(ExecutionTiling {
                tiles: self.tiles,
                filter: self.tile_scope.filter(),
            }));
        }
        if self.localize {
            pm.push(Box::new(MemoryLocalization::default()));
        }
        if self.spad_banks > 1 {
            pm.push(Box::new(ScratchpadBanking {
                banks: self.spad_banks,
            }));
        }
        if self.cache_banks > 1 {
            pm.push(Box::new(CacheBanking {
                banks: self.cache_banks,
            }));
        }
        if self.fusion_period_ns > 0.0 {
            pm.push(Box::new(OpFusion::with_period(self.fusion_period_ns)));
        }
        pm
    }

    /// Stable content hash of the knob assignment — the config half of
    /// the DSE dedup key (the artifact content hash is the other half).
    pub fn config_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.push_str("uopt-passcfg-v1");
        h.push_u64(u64::from(self.queue_depth));
        h.push_u64(u64::from(self.tiles));
        h.push_str(self.tile_scope.tag());
        h.push_u64(u64::from(self.localize));
        h.push_u64(u64::from(self.spad_banks));
        h.push_u64(u64::from(self.cache_banks));
        h.push_f64_bits(self.fusion_period_ns);
        h.finish()
    }
}

impl fmt::Display for PassConfig {
    /// Compact knob label, e.g. `q8 t4:leaf loc spad4 cache2 fuse2.5`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_baseline() {
            return write!(f, "baseline");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.queue_depth > 0 {
            parts.push(format!("q{}", self.queue_depth));
        }
        if self.tiles > 1 {
            parts.push(format!("t{}:{}", self.tiles, self.tile_scope.tag()));
        }
        if self.localize {
            parts.push("loc".to_string());
        }
        if self.spad_banks > 1 {
            parts.push(format!("spad{}", self.spad_banks));
        }
        if self.cache_banks > 1 {
            parts.push(format!("cache{}", self.cache_banks));
        }
        if self.fusion_period_ns > 0.0 {
            parts.push(format!("fuse{}", self.fusion_period_ns));
        }
        write!(f, "{}", parts.join(" "))
    }
}

/// The enumerable design space: the cross product of every knob's levels,
/// addressed by a mixed-radix index in `[0, size())`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassSpace;

impl PassSpace {
    /// The full knob surface.
    pub fn full() -> PassSpace {
        PassSpace
    }

    /// Number of distinct knob assignments (including the baseline).
    pub fn size(&self) -> u64 {
        (QUEUE_DEPTHS.len()
            * TILE_COUNTS.len()
            * TileScope::ALL.len()
            * 2
            * SPAD_BANKS.len()
            * CACHE_BANKS.len()
            * FUSION_PERIODS_NS.len()) as u64
    }

    /// Decode the `i`-th config (mixed-radix; `i` is taken modulo
    /// [`PassSpace::size`]). `nth(0)` is the baseline.
    pub fn nth(&self, i: u64) -> PassConfig {
        let mut i = i % self.size();
        let mut digit = |radix: usize| -> usize {
            let d = (i % radix as u64) as usize;
            i /= radix as u64;
            d
        };
        PassConfig {
            queue_depth: QUEUE_DEPTHS[digit(QUEUE_DEPTHS.len())],
            tiles: TILE_COUNTS[digit(TILE_COUNTS.len())],
            tile_scope: TileScope::ALL[digit(TileScope::ALL.len())],
            localize: digit(2) == 1,
            spad_banks: SPAD_BANKS[digit(SPAD_BANKS.len())],
            cache_banks: CACHE_BANKS[digit(CACHE_BANKS.len())],
            fusion_period_ns: FUSION_PERIODS_NS[digit(FUSION_PERIODS_NS.len())],
        }
    }

    /// Seeded sample of up to `budget` *distinct* config indices,
    /// ascending. Index 0 (the baseline) is always included, so every
    /// sampled sweep is anchored at the unoptimized design. Deterministic
    /// in `(seed, budget)`: the same call always returns the same set.
    pub fn sample_indices(&self, seed: u64, budget: u64) -> Vec<u64> {
        let want = budget.clamp(1, self.size());
        let mut rng = SplitMix64::salted(seed, 0xd5e_5a17);
        let mut set = std::collections::BTreeSet::new();
        set.insert(0u64);
        while (set.len() as u64) < want {
            set.insert(rng.below(self.size()));
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DSE reports and store keys carry these hashes, so the encoding is
    /// pinned: a change must be deliberate (and bump the domain tag).
    #[test]
    fn config_hash_is_pinned() {
        let space = PassSpace::full();
        assert_eq!(PassConfig::baseline().config_hash(), 0xe3eb_0f27_35bf_ccb3);
        assert_eq!(
            space.nth(space.size() - 1).config_hash(),
            0x544a_b0d4_a97f_bf04
        );
    }

    #[test]
    fn space_is_enumerable_and_zero_is_baseline() {
        let space = PassSpace::full();
        assert_eq!(space.size(), 3072);
        assert!(space.nth(0).is_baseline());
        assert_eq!(space.nth(0), PassConfig::baseline());
        // nth is total: the last index decodes, and wraps modulo size.
        let last = space.nth(space.size() - 1);
        assert!(!last.is_baseline());
        assert_eq!(space.nth(space.size()), space.nth(0));
    }

    #[test]
    fn nth_is_a_bijection_over_hashes() {
        let space = PassSpace::full();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..space.size() {
            seen.insert(space.nth(i).config_hash());
        }
        assert_eq!(seen.len() as u64, space.size(), "hash collision in space");
    }

    #[test]
    fn sampling_is_seeded_deterministic_and_anchored() {
        let space = PassSpace::full();
        let a = space.sample_indices(0xbeef, 24);
        let b = space.sample_indices(0xbeef, 24);
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 24);
        assert_eq!(a[0], 0, "baseline always sampled");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending + distinct");
        let c = space.sample_indices(0xbee0, 24);
        assert_ne!(a, c, "different seed, different sample");
        // Budget beyond the space saturates instead of looping forever.
        let all = space.sample_indices(1, space.size() + 100);
        assert_eq!(all.len() as u64, space.size());
    }

    #[test]
    fn baseline_pipeline_is_empty_and_full_config_stacks_passes() {
        assert_eq!(
            format!("{:?}", PassConfig::baseline().pipeline())
                .matches(',')
                .count(),
            0
        );
        let full = PassConfig {
            queue_depth: 8,
            tiles: 4,
            tile_scope: TileScope::LeafLoops,
            localize: true,
            spad_banks: 4,
            cache_banks: 2,
            fusion_period_ns: 2.5,
        };
        let dbg = format!("{:?}", full.pipeline());
        for name in [
            "task-queueing",
            "execution-tiling",
            "memory-localization",
            "scratchpad-banking",
            "cache-banking",
            "op-fusion",
        ] {
            assert!(dbg.contains(name), "{dbg}");
        }
        assert_eq!(full.to_string(), "q8 t4:leaf loc spad4 cache2 fuse2.5");
    }
}
