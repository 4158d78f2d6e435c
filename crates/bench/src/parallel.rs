//! The block-parallel hard workload of the `parallel_decomposition` bench
//! and the `--exp parallel` sweep.
//!
//! [`ParallelWorkload`] generates the instance they run on: a union of `blocks` variable-disjoint hard blocks, each shaped like the
//! transition-region instances of Figure 12. Because the blocks share no
//! variables, the very first decomposition step is an independent
//! partition (⊗) with one child per block — exactly the coarse-grained
//! sibling fan-out the top split of `confidence_parallel` hands to the
//! workers as indexed jobs, while each block stays individually hard for
//! the exact algorithms.

use uprob_core::available_workers;
use uprob_wsd::{ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

/// Number of logical cores the host exposes (the same detection
/// [`uprob_core::ParallelOptions::auto`] uses).
pub fn available_cores() -> usize {
    available_workers()
}

/// Shape of the block-parallel workload.
#[derive(Clone, Copy, Debug)]
pub struct ParallelWorkloadConfig {
    /// Number of variable-disjoint hard blocks (the width of the root
    /// independent partition, i.e. the available coarse-grained jobs).
    pub blocks: usize,
    /// Variables per block.
    pub vars_per_block: usize,
    /// Alternatives per variable `r` (uniform probabilities `1/r`).
    pub alternatives: usize,
    /// Ws-descriptor length `s` within a block.
    pub descriptor_length: usize,
    /// Ws-descriptors per block (kept near `vars_per_block`, the
    /// transition region of Figure 12, so each block is genuinely hard).
    pub descriptors_per_block: usize,
    /// RNG seed; the same seed always produces the same workload.
    pub seed: u64,
}

impl Default for ParallelWorkloadConfig {
    fn default() -> Self {
        ParallelWorkloadConfig {
            blocks: 8,
            vars_per_block: 24,
            alternatives: 4,
            descriptor_length: 4,
            descriptors_per_block: 24,
            seed: 2008,
        }
    }
}

/// A union of variable-disjoint hard blocks; see the module docs.
#[derive(Clone, Debug)]
pub struct ParallelWorkload {
    /// The world table with `blocks × vars_per_block` variables.
    pub world_table: WorldTable,
    /// The combined ws-set (`blocks × descriptors_per_block` descriptors).
    pub ws_set: WsSet,
    /// The configuration that produced the workload.
    pub config: ParallelWorkloadConfig,
}

/// SplitMix64 step — a tiny deterministic generator so the bench crate
/// needs no RNG dependency of its own.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a value in `0..bound` (bound must be nonzero).
fn draw(state: &mut u64, bound: usize) -> usize {
    (splitmix64(state) % bound as u64) as usize
}

impl ParallelWorkload {
    /// Generates the workload from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or
    /// `vars_per_block < descriptor_length` — such configurations cannot
    /// produce descriptors of the requested shape.
    pub fn generate(config: ParallelWorkloadConfig) -> ParallelWorkload {
        assert!(config.blocks > 0, "need at least one block");
        assert!(config.alternatives > 0, "need at least one alternative");
        assert!(
            config.descriptor_length > 0 && config.descriptor_length <= config.vars_per_block,
            "descriptor length must be between 1 and the variables per block"
        );
        let mut world_table = WorldTable::new();
        let mut ws_set = WsSet::empty();
        let mut state = config.seed ^ 0x5DEE_CE66_D201_3BDF;
        for block in 0..config.blocks {
            // The block's own variables — disjoint from every other
            // block's, so the root decomposition step partitions.
            let variables: Vec<VarId> = (0..config.vars_per_block)
                .map(|i| {
                    world_table
                        .add_uniform(&format!("b{block}_x{i}"), config.alternatives)
                        .expect("uniform variable construction cannot fail")
                })
                .collect();
            // Like `HardInstance`: partition the block's variables into
            // `s` groups and draw one (variable, value) pair per group,
            // so descriptors within a block overlap heavily.
            let group_size = config.vars_per_block / config.descriptor_length;
            for _ in 0..config.descriptors_per_block {
                let mut descriptor = WsDescriptor::empty();
                for group in 0..config.descriptor_length {
                    let start = group * group_size;
                    let end = if group + 1 == config.descriptor_length {
                        config.vars_per_block
                    } else {
                        start + group_size
                    };
                    let var = variables[start + draw(&mut state, end - start)];
                    let value = draw(&mut state, config.alternatives) as u16;
                    descriptor
                        .assign(var, ValueIndex(value))
                        .expect("groups are disjoint");
                }
                ws_set.push(descriptor);
            }
        }
        ParallelWorkload {
            world_table,
            ws_set,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_core::{confidence, confidence_parallel, DecompositionOptions, ParallelOptions};

    #[test]
    fn workload_has_the_requested_shape() {
        let workload = ParallelWorkload::generate(ParallelWorkloadConfig {
            blocks: 3,
            vars_per_block: 8,
            alternatives: 2,
            descriptor_length: 4,
            descriptors_per_block: 10,
            seed: 7,
        });
        assert_eq!(workload.world_table.num_variables(), 24);
        assert_eq!(workload.ws_set.len(), 30);
    }

    #[test]
    fn workload_parallel_fold_is_bit_identical() {
        let workload = ParallelWorkload::generate(ParallelWorkloadConfig {
            blocks: 4,
            vars_per_block: 10,
            alternatives: 2,
            descriptor_length: 3,
            descriptors_per_block: 12,
            seed: 42,
        });
        let options = DecompositionOptions::indve_minlog();
        let sequential = confidence(&workload.ws_set, &workload.world_table, &options).unwrap();
        assert!(sequential.probability > 0.0 && sequential.probability < 1.0);
        for workers in [2, 4, 8] {
            let got = confidence_parallel(
                &workload.ws_set,
                &workload.world_table,
                &options,
                &ParallelOptions::new(workers).with_grain(2),
                None,
            )
            .unwrap();
            assert_eq!(got.probability.to_bits(), sequential.probability.to_bits());
            assert_eq!(got.stats, sequential.stats);
        }
    }
}
