//! The concrete selection policies.
//!
//! Paper policies (Sec. 3.1): [`NoCollection`], [`Random`],
//! [`MutatedPartition`], [`UpdatedPointer`], [`WeightedPointer`],
//! [`MostGarbage`]. Baseline from related work: [`YnyMutated`] (the
//! unenhanced Yong/Naughton/Yu policy). Extensions for ablation studies:
//! [`RoundRobin`], [`Occupancy`], [`Generational`], [`UpdatedDecay`].
//! Extensions that combine signals: [`Composite`] (blended score, one
//! pass) and [`AdaptiveMeta`] (online policy switching).
//!
//! The counter policies all keep their per-partition state in a
//! [`crate::scoreboard::Scoreboard`] — dense input tables plus one arg-max
//! scan — so each policy body is just a scoring [`crate::scoreboard::Rule`].

mod adaptive_meta;
mod composite;
mod generational;
mod most_garbage;
mod mutated_partition;
mod no_collection;
mod occupancy;
mod random;
mod round_robin;
mod updated_decay;
mod updated_pointer;
mod weighted_pointer;
mod yny_mutated;

pub use adaptive_meta::{AdaptiveMeta, DEFAULT_CANDIDATES, DEFAULT_MARGIN_PCT, DEFAULT_WINDOW};
pub use composite::Composite;
pub use generational::Generational;
pub use most_garbage::MostGarbage;
pub use mutated_partition::MutatedPartition;
pub use no_collection::NoCollection;
pub use occupancy::Occupancy;
pub use random::Random;
pub use round_robin::RoundRobin;
pub use updated_decay::UpdatedDecay;
pub use updated_pointer::UpdatedPointer;
pub use weighted_pointer::WeightedPointer;
pub use yny_mutated::YnyMutated;

use crate::policy::{PolicyKind, SelectionPolicy};

/// Constructs a boxed policy of the given kind.
///
/// `seed` feeds the `Random` policy's generator (other policies are
/// deterministic and ignore it); `max_weight` parameterizes
/// `WeightedPointer`'s exponential scoring and should match the database's
/// [`pgc_types::DbConfig::max_weight`].
pub fn build_policy(kind: PolicyKind, seed: u64, max_weight: u8) -> Box<dyn SelectionPolicy> {
    match kind {
        PolicyKind::NoCollection => Box::new(NoCollection::new()),
        PolicyKind::Random => Box::new(Random::new(seed)),
        PolicyKind::MutatedPartition => Box::new(MutatedPartition::new()),
        PolicyKind::UpdatedPointer => Box::new(UpdatedPointer::new()),
        PolicyKind::WeightedPointer => Box::new(WeightedPointer::new(max_weight)),
        PolicyKind::MostGarbage => Box::new(MostGarbage::new()),
        PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
        PolicyKind::Occupancy => Box::new(Occupancy::new()),
        PolicyKind::YnyMutated => Box::new(YnyMutated::new()),
        PolicyKind::Generational => Box::new(Generational::new()),
        PolicyKind::UpdatedDecay => Box::new(UpdatedDecay::new()),
        PolicyKind::Composite => Box::new(Composite::new()),
        PolicyKind::AdaptiveMeta => Box::new(AdaptiveMeta::new(max_weight)),
    }
}

/// Like [`build_policy`], additionally configuring intra-run parallelism
/// for policies with parallel kernels.
///
/// Today only the oracle-backed `MostGarbage` has one (its reachability
/// pass); every other policy is scoreboard-driven with no hot kernel, so
/// the knob is ignored — which is also why `Deterministic(n)` is trivially
/// bit-identical to `Serial` for them.
pub fn build_policy_with(
    kind: PolicyKind,
    seed: u64,
    max_weight: u8,
    parallelism: pgc_types::Parallelism,
) -> Box<dyn SelectionPolicy> {
    match kind {
        PolicyKind::MostGarbage => Box::new(MostGarbage::new().with_parallelism(parallelism)),
        _ => build_policy(kind, seed, max_weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_matching_kinds() {
        for kind in PolicyKind::ALL {
            let p = build_policy(kind, 7, 16);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.name(), kind.name());
        }
    }
}
