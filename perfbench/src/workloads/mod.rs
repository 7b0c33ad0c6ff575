//! The four workloads. Each module generates its inputs from the seed
//! (`plan`), builds its fixture, drives the timed closed loop through
//! [`crate::Harness::measure`], and checks its conservation counts before
//! reporting its per-layer metrics.

pub mod hot_small;
pub mod lease_churn;
pub mod scatter_gather;
pub mod state_rw;

use sim_core::DeterministicRng;

/// `len` seeded random bytes.
pub fn random_bytes(rng: &mut DeterministicRng, len: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

/// `blocks` copies of `block`, each shuffled by `rng`: the shares of every
/// kind of step are fixed, and the seed decides their order.
pub fn shuffled_blocks<T: Copy>(rng: &mut DeterministicRng, block: &[T], blocks: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(block.len() * blocks);
    for _ in 0..blocks {
        let mut next = block.to_vec();
        for i in (1..next.len()).rev() {
            next.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
        }
        out.extend(next);
    }
    out
}

/// FNV-1a digest of a sequence of byte strings (input plans are compared
/// through it).
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in (part.len() as u64).to_le_bytes().iter().chain(part) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
