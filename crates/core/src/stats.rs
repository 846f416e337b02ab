//! Execution statistics.

/// Counters accumulated while running a simulation.
///
/// "Steps" follow the paper's convention: every selection of the scheduler is one step,
/// whether or not the selected interaction is effective.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Scheduler selections (interactions), effective or not. Includes the steps
    /// credited in bulk by the sharded sampler (see `skipped_steps`).
    pub steps: u64,
    /// Interactions that changed a state or a bond.
    pub effective_steps: u64,
    /// Of `steps`, how many were credited in bulk by the sharded sampler's geometric
    /// jumps (ineffective selections that were counted without being drawn one by
    /// one). Always zero outside `SamplingMode::Sharded`.
    pub skipped_steps: u64,
    /// Bond activations.
    pub bonds_activated: u64,
    /// Bond deactivations.
    pub bonds_deactivated: u64,
    /// Component merges (two components becoming one).
    pub merges: u64,
    /// Component splits (one component becoming two).
    pub splits: u64,
}

impl ExecutionStats {
    /// Fraction of steps that were effective (0 when no step has been taken).
    #[must_use]
    pub fn effectiveness(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.effective_steps as f64 / self.steps as f64
        }
    }

    /// Merges the counters of another stats block into this one.
    pub fn absorb(&mut self, other: &ExecutionStats) {
        self.steps += other.steps;
        self.effective_steps += other.effective_steps;
        self.skipped_steps += other.skipped_steps;
        self.bonds_activated += other.bonds_activated;
        self.bonds_deactivated += other.bonds_deactivated;
        self.merges += other.merges;
        self.splits += other.splits;
    }
}

/// Per-shard load and routing snapshot of a [`crate::World`], as reported by
/// [`crate::World::shard_stats`]. All vectors have one entry per shard, in shard
/// order; the index-backed loads (singletons, free ports, intra pairs) are zero while
/// the permissible-pair index has not been activated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards the world's runtime structures are partitioned into.
    pub shards: usize,
    /// Nodes owned per shard (the contiguous id-range sizes; sums to `n`).
    pub nodes: Vec<usize>,
    /// Free singletons registered per shard (sums to the live singleton count).
    pub singletons: Vec<usize>,
    /// Free multi-component ports registered per shard.
    pub free_ports: Vec<usize>,
    /// Intra-component pairs owned per shard (by smaller endpoint).
    pub intra_pairs: Vec<usize>,
    /// Merges/splits whose two participants lived in different shards — the traffic
    /// the cross-shard pending queues routed.
    pub cross_shard_events: u64,
}

impl ShardStats {
    /// Total registered singletons across shards.
    #[must_use]
    pub fn total_singletons(&self) -> usize {
        self.singletons.iter().sum()
    }

    /// Total registered free ports across shards.
    #[must_use]
    pub fn total_free_ports(&self) -> usize {
        self.free_ports.iter().sum()
    }

    /// Total intra-component pairs across shards.
    #[must_use]
    pub fn total_intra_pairs(&self) -> usize {
        self.intra_pairs.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_totals_sum_over_shards() {
        let stats = ShardStats {
            shards: 3,
            nodes: vec![4, 4, 2],
            singletons: vec![1, 2, 0],
            free_ports: vec![3, 0, 1],
            intra_pairs: vec![5, 1, 0],
            cross_shard_events: 7,
        };
        assert_eq!(stats.total_singletons(), 3);
        assert_eq!(stats.total_free_ports(), 4);
        assert_eq!(stats.total_intra_pairs(), 6);
    }

    #[test]
    fn effectiveness_ratio() {
        let mut s = ExecutionStats::default();
        assert_eq!(s.effectiveness(), 0.0);
        s.steps = 10;
        s.effective_steps = 4;
        assert!((s.effectiveness() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn absorb_adds_counters() {
        let mut a = ExecutionStats {
            steps: 5,
            effective_steps: 2,
            skipped_steps: 1,
            bonds_activated: 1,
            bonds_deactivated: 0,
            merges: 1,
            splits: 0,
        };
        let b = ExecutionStats {
            steps: 7,
            effective_steps: 3,
            skipped_steps: 2,
            bonds_activated: 2,
            bonds_deactivated: 1,
            merges: 0,
            splits: 1,
        };
        a.absorb(&b);
        assert_eq!(a.steps, 12);
        assert_eq!(a.skipped_steps, 3);
        assert_eq!(a.effective_steps, 5);
        assert_eq!(a.bonds_activated, 3);
        assert_eq!(a.bonds_deactivated, 1);
        assert_eq!(a.merges, 1);
        assert_eq!(a.splits, 1);
    }
}
