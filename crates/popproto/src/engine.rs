//! The population-protocol engine: a complete interaction graph under the uniform random
//! scheduler, built on the shared `nc-core` runtime.
//!
//! A population protocol is the degenerate geometric model in which geometry never
//! matters: agents are free nodes that never bond, so every unordered pair stays
//! permissible forever and the uniform scheduler over permissible node-port pairs is
//! exactly the classical uniform scheduler over agent pairs. The [`Clique`] adapter
//! embeds a [`PopulationProtocol`] into the geometric [`Protocol`] trait (ports and
//! bonds are ignored, transitions never activate a bond), and [`PopSimulation`] is a
//! thin wrapper around the shared [`Simulation`] runtime — one stepping loop, one
//! [`ExecutionStats`]/[`RunReport`] vocabulary for constructors and counting protocols
//! alike. The previous hand-rolled stepping loop in this module has been deleted.

use nc_core::{
    ExecutionStats, NodeId, Protocol, RunReport, Simulation, SimulationConfig, Transition, World,
};
use nc_geometry::Dir;
use std::fmt::Debug;

/// A population protocol on a complete interaction graph.
///
/// Interactions are unordered: when the scheduler selects the pair `{u, v}` the engine
/// first asks `interact(state(u), state(v))` and, if that is ineffective (`None`), the
/// symmetric `interact(state(v), state(u))`.
///
/// Protocols and states are `Send + Sync` (inherited from the geometric
/// [`Protocol`] trait through the [`Clique`] adapter): transition tables are pure
/// shared data. The engine itself is single-threaded; a world moves between the
/// service's workers but is never shared between threads.
pub trait PopulationProtocol: Send + Sync {
    /// Per-agent state.
    type State: Clone + PartialEq + Debug + Send + Sync;

    /// Initial state of agent `node` in a population of `n` agents. Leader-based
    /// protocols conventionally make agent 0 the leader; UID-based protocols may derive
    /// an identifier from `node`.
    fn initial_state(&self, node: usize, n: usize) -> Self::State;

    /// The transition function; `None` means the interaction is ineffective.
    fn interact(&self, a: &Self::State, b: &Self::State) -> Option<(Self::State, Self::State)>;

    /// Whether `state` is a halted state. Interactions involving a halted agent are
    /// ineffective by definition.
    fn is_halted(&self, _state: &Self::State) -> bool {
        false
    }

    /// An upper bound on the number of *distinct* states simultaneously live in any
    /// reachable configuration, if the protocol can guarantee one; `None` means
    /// unbounded or unknown.
    ///
    /// This is the state-diversity pre-check for sharded sampling: population
    /// protocols are the all-singletons special case of the permissible-pair index
    /// (pure class counting, no geometry), so a protocol whose live diversity fits the
    /// index's class cap ([`nc_core::MAX_LIVE_STATE_CLASSES`]) gets Gillespie-style
    /// geometric jumps for free — [`PopSimulation::new`] switches it to
    /// [`nc_core::SamplingMode::Sharded`]. Note the bound is on *simultaneously live*
    /// states, not the state space: the counting leader walks through unboundedly many
    /// counter states, but only one leader state is live at a time, so its bound is a
    /// small constant. UID-style protocols (every agent holds a distinct identifier)
    /// are unbounded by design and must return `None`, keeping the adaptive sampler.
    fn live_state_bound(&self) -> Option<usize> {
        None
    }

    /// Short protocol name for reports.
    fn name(&self) -> &str {
        "population protocol"
    }
}

impl<P: PopulationProtocol + ?Sized> PopulationProtocol for &P {
    type State = P::State;

    fn initial_state(&self, node: usize, n: usize) -> Self::State {
        (**self).initial_state(node, n)
    }

    fn interact(&self, a: &Self::State, b: &Self::State) -> Option<(Self::State, Self::State)> {
        (**self).interact(a, b)
    }

    fn is_halted(&self, state: &Self::State) -> bool {
        (**self).is_halted(state)
    }

    fn live_state_bound(&self) -> Option<usize> {
        (**self).live_state_bound()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Embeds a population protocol into the geometric model: ports are ignored, bonds are
/// never activated, so all agents remain free singleton components and every agent pair
/// stays permissible — the clique interaction graph.
#[derive(Clone, Copy, Debug)]
pub struct Clique<P>(P);

impl<P: PopulationProtocol> Clique<P> {
    /// Wraps a population protocol for execution on the shared runtime.
    #[must_use]
    pub fn new(protocol: P) -> Clique<P> {
        Clique(protocol)
    }

    /// The wrapped population protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.0
    }
}

impl<P: PopulationProtocol> Protocol for Clique<P> {
    type State = P::State;

    fn initial_state(&self, node: NodeId, n: usize) -> Self::State {
        self.0.initial_state(node.index(), n)
    }

    fn transition(
        &self,
        a: &Self::State,
        _pa: Dir,
        b: &Self::State,
        _pb: Dir,
        _bonded: bool,
    ) -> Option<Transition<Self::State>> {
        self.0.interact(a, b).map(|(new_a, new_b)| Transition {
            a: new_a,
            b: new_b,
            bond: false,
        })
    }

    fn is_halted(&self, state: &Self::State) -> bool {
        self.0.is_halted(state)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A running execution of a population protocol on the shared runtime.
pub struct PopSimulation<P: PopulationProtocol> {
    sim: Simulation<Clique<P>>,
}

impl<P: PopulationProtocol> PopSimulation<P> {
    /// Creates the initial configuration on `n` agents with a seeded scheduler.
    ///
    /// Protocols that bound their live state diversity below the pair index's class
    /// cap ([`PopulationProtocol::live_state_bound`]) run under
    /// [`nc_core::SamplingMode::Sharded`] — on a clique the permissible count is the
    /// constant `ports²·C(n, 2)`, so the sharded sampler is exactly a Gillespie-style
    /// jump process over state-class counts. Protocols without such a bound (UID-based
    /// and leaderless-window protocols, whose agents all hold distinct states) keep
    /// the adaptive sampler, which is the same fallback the index would degrade to
    /// after overflowing — the pre-check just skips the doomed build.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(protocol: P, n: usize, seed: u64) -> PopSimulation<P> {
        assert!(n >= 2, "a population protocol needs at least two agents");
        let sampling = match protocol.live_state_bound() {
            Some(bound) if bound <= nc_core::MAX_LIVE_STATE_CLASSES => {
                nc_core::SamplingMode::Sharded
            }
            _ => nc_core::SamplingMode::Adaptive,
        };
        let config = SimulationConfig::new(n)
            .with_seed(seed)
            .with_sampling(sampling);
        PopSimulation {
            sim: Simulation::new(Clique::new(protocol), config),
        }
    }

    /// The sampling mode the diversity pre-check selected for this execution.
    #[must_use]
    pub fn sampling_mode(&self) -> nc_core::SamplingMode {
        self.sim.config().sampling
    }

    /// Population size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sim.world().len()
    }

    /// Whether the population is empty (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sim.world().is_empty()
    }

    /// The protocol being executed.
    #[must_use]
    pub fn protocol(&self) -> &P {
        self.sim.world().protocol().inner()
    }

    /// The underlying geometric world (a clique of free nodes).
    #[must_use]
    pub fn world(&self) -> &World<Clique<P>> {
        self.sim.world()
    }

    /// Current state of agent `node`.
    ///
    /// # Panics
    /// Panics if `node ≥ n`.
    #[must_use]
    pub fn state(&self, node: usize) -> &P::State {
        self.sim.world().state(NodeId::new(node as u32))
    }

    /// All agent states in agent order.
    #[must_use]
    pub fn states(&self) -> &[P::State] {
        self.sim.world().state_slice()
    }

    /// The statistics accumulated so far (shared vocabulary with the constructors).
    #[must_use]
    pub fn stats(&self) -> ExecutionStats {
        self.sim.stats()
    }

    /// Total scheduler selections so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.sim.stats().steps
    }

    /// Total effective interactions so far.
    #[must_use]
    pub fn effective_steps(&self) -> u64 {
        self.sim.stats().effective_steps
    }

    /// Agents currently in a halted state.
    #[must_use]
    pub fn halted_agents(&self) -> Vec<usize> {
        self.sim
            .world()
            .halted_nodes()
            .into_iter()
            .map(NodeId::index)
            .collect()
    }

    /// Performs one scheduler step (one uniformly random unordered pair interacts).
    /// Returns whether the interaction was effective.
    pub fn step(&mut self) -> bool {
        let before = self.sim.stats().effective_steps;
        let stepped = self.sim.step();
        debug_assert!(
            stepped,
            "a clique of n ≥ 2 agents always has permissible pairs"
        );
        self.sim.stats().effective_steps > before
    }

    /// Runs until `predicate` holds on the state slice (checked before the first step and
    /// after every step) or until `max_steps` further selections have been made.
    pub fn run_until(
        &mut self,
        max_steps: u64,
        mut predicate: impl FnMut(&[P::State]) -> bool,
    ) -> RunReport {
        self.sim.config_mut().max_steps = max_steps;
        self.sim.run_until(|world| predicate(world.state_slice()))
    }

    /// Runs until some agent halts (or the step budget runs out).
    pub fn run_until_any_halted(&mut self, max_steps: u64) -> RunReport {
        self.sim.config_mut().max_steps = max_steps;
        self.sim.run_until_any_halted()
    }

    /// Counts agents per distinct state (useful for small finite state spaces).
    #[must_use]
    pub fn state_census(&self) -> Vec<(P::State, usize)> {
        let mut census: Vec<(P::State, usize)> = Vec::new();
        for s in self.states() {
            if let Some(entry) = census.iter_mut().find(|(state, _)| state == s) {
                entry.1 += 1;
            } else {
                census.push((s.clone(), 1));
            }
        }
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic epidemic: one infected agent spreads to everyone.
    struct Epidemic;

    impl PopulationProtocol for Epidemic {
        type State = bool;

        fn initial_state(&self, node: usize, _n: usize) -> bool {
            node == 0
        }

        fn interact(&self, a: &bool, b: &bool) -> Option<(bool, bool)> {
            if *a && !*b {
                Some((true, true))
            } else {
                None
            }
        }
    }

    #[test]
    fn epidemic_infects_everyone() {
        let mut sim = PopSimulation::new(Epidemic, 50, 3);
        let report = sim.run_until(1_000_000, |states| states.iter().all(|&s| s));
        assert!(report.condition_met());
        assert_eq!(report.effective_steps, 49);
        assert!(report.steps >= 49);
        assert_eq!(sim.state_census(), vec![(true, 50)]);
    }

    #[test]
    fn symmetric_rule_applies_in_both_orders() {
        // The rule is written as (infected, susceptible); the engine must also apply it
        // when the pair is presented the other way round — statistically both orders
        // occur, so a complete infection proves both work.
        let mut sim = PopSimulation::new(Epidemic, 10, 11);
        sim.run_until(100_000, |states| states.iter().all(|&s| s));
        assert!(sim.states().iter().all(|&s| s));
    }

    #[test]
    fn the_clique_world_stays_bond_free() {
        // The adapter never activates bonds: all agents remain free singleton
        // components, which is exactly what makes the uniform scheduler over node-port
        // pairs equal to the uniform scheduler over agent pairs.
        let mut sim = PopSimulation::new(Epidemic, 12, 4);
        sim.run_until(50_000, |states| states.iter().all(|&s| s));
        assert_eq!(sim.world().bond_count(), 0);
        assert_eq!(sim.world().component_count(), 12);
        assert!(sim.world().check_invariants());
    }

    /// A protocol where agents halt after their first effective interaction.
    struct OneShot;

    #[derive(Clone, PartialEq, Debug)]
    enum O {
        Fresh,
        Done,
    }

    impl PopulationProtocol for OneShot {
        type State = O;

        fn initial_state(&self, _node: usize, _n: usize) -> O {
            O::Fresh
        }

        fn interact(&self, a: &O, b: &O) -> Option<(O, O)> {
            if *a == O::Fresh && *b == O::Fresh {
                Some((O::Done, O::Done))
            } else {
                None
            }
        }

        fn is_halted(&self, state: &O) -> bool {
            *state == O::Done
        }
    }

    #[test]
    fn halted_agents_no_longer_interact() {
        let mut sim = PopSimulation::new(OneShot, 4, 5);
        let report = sim.run_until_any_halted(10_000);
        assert!(report.condition_met());
        let halted_now = sim.halted_agents().len();
        assert_eq!(halted_now, 2);
        // Remaining fresh agents can still pair up, but the halted ones never change.
        sim.run_until(10_000, |states| {
            states.iter().filter(|s| **s == O::Done).count() == 4
        });
        assert_eq!(sim.halted_agents().len(), 4);
        assert_eq!(sim.effective_steps(), 2);
    }

    #[test]
    fn reproducible_with_same_seed() {
        let mut a = PopSimulation::new(Epidemic, 20, 99);
        let mut b = PopSimulation::new(Epidemic, 20, 99);
        let ra = a.run_until(100_000, |s| s.iter().all(|&x| x));
        let rb = b.run_until(100_000, |s| s.iter().all(|&x| x));
        assert_eq!(ra, rb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn tiny_population_rejected() {
        let _ = PopSimulation::new(Epidemic, 1, 0);
    }

    /// Epidemic with an explicit diversity bound (two live states: infected or not).
    struct BoundedEpidemic;

    impl PopulationProtocol for BoundedEpidemic {
        type State = bool;

        fn initial_state(&self, node: usize, _n: usize) -> bool {
            node == 0
        }

        fn interact(&self, a: &bool, b: &bool) -> Option<(bool, bool)> {
            Epidemic.interact(a, b)
        }

        fn live_state_bound(&self) -> Option<usize> {
            Some(2)
        }
    }

    /// Claims a bound far above the class cap: the pre-check must refuse it.
    struct OverCapProtocol;

    impl PopulationProtocol for OverCapProtocol {
        type State = u32;

        fn initial_state(&self, node: usize, _n: usize) -> u32 {
            node as u32
        }

        fn interact(&self, _a: &u32, _b: &u32) -> Option<(u32, u32)> {
            None
        }

        fn live_state_bound(&self) -> Option<usize> {
            Some(nc_core::MAX_LIVE_STATE_CLASSES + 1)
        }
    }

    #[test]
    fn diversity_precheck_selects_the_sampling_mode() {
        // Bounded diversity within the cap → sharded; no bound (the default) or a
        // bound above the cap → adaptive.
        let bounded = PopSimulation::new(BoundedEpidemic, 8, 1);
        assert_eq!(bounded.sampling_mode(), nc_core::SamplingMode::Sharded);
        let unbounded = PopSimulation::new(Epidemic, 8, 1);
        assert_eq!(unbounded.sampling_mode(), nc_core::SamplingMode::Adaptive);
        let over_cap = PopSimulation::new(OverCapProtocol, 8, 1);
        assert_eq!(over_cap.sampling_mode(), nc_core::SamplingMode::Adaptive);
    }

    #[test]
    fn sharded_epidemic_matches_the_adaptive_outcome() {
        // Same protocol under both samplers: the trajectory distributions are
        // identical, so the guaranteed outcome (everyone infected, exactly n − 1
        // effective interactions) must hold under sharded jumps too.
        let mut sim = PopSimulation::new(BoundedEpidemic, 50, 3);
        let report = sim.run_until(1_000_000, |states| states.iter().all(|&s| s));
        assert!(report.condition_met());
        assert_eq!(report.effective_steps, 49);
        assert!(
            sim.stats().skipped_steps > 0,
            "a 50-agent epidemic tail must skip ineffective selections in bulk"
        );
        assert!(sim.world().check_invariants());
        sim.world()
            .validate_pair_index()
            .expect("the clique pair index stays exact");
    }
}
