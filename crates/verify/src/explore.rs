//! Breadth-first exploration of the reachable configuration graph.
//!
//! Every transition the explorer takes goes through the production machinery —
//! [`World::enumerate_permissible`] to list candidates,
//! [`World::effective_interaction_at`] to decide effectiveness and
//! [`World::apply`] to take the step, on a copy of the state rebuilt from its
//! configuration whose pair index is live, so the apply maintains it incrementally
//! and [`World::validate_pair_index`] checks the result against the enumeration.
//! The explorer has no protocol semantics of its own: every divergence between the
//! index, the scan and the geometry surfaces as an
//! [`ViolationKind::OracleMismatch`] with a replayable trace.

use std::collections::{HashMap, VecDeque};

use nc_core::{NodeId, Simulation, SimulationConfig, Snapshot, World};
use nc_geometry::Dir;

use crate::canon::{self, Config};
use crate::spec::VerifiedProtocol;

/// One scheduler choice: the unordered node-port pair handed to the transition
/// function. Stored instead of a full [`nc_core::Interaction`] because merge
/// permissibilities embed rotations/translations that are only valid for one
/// concrete embedding; replay re-derives the interaction from the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairChoice {
    /// First participant.
    pub a: NodeId,
    /// Port of the first participant.
    pub pa: Dir,
    /// Second participant.
    pub b: NodeId,
    /// Port of the second participant.
    pub pb: Dir,
}

impl std::fmt::Display for PairChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}:{}, {}:{})",
            self.a,
            self.pa.short_name(),
            self.b,
            self.pb.short_name()
        )
    }
}

/// One canonical reachable configuration.
pub struct StateRec<P: VerifiedProtocol> {
    /// A concrete representative. Node ids are consistent with the parent's
    /// representative, so parent chains replay verbatim from the initial world.
    pub config: Config<P>,
    /// Canonical key (see [`canon::canonical_key`]).
    pub key: Vec<u8>,
    /// Discovering state and the pair that led here (None for the initial state).
    pub parent: Option<(usize, PairChoice)>,
    /// BFS depth, i.e. length of the shortest interaction sequence reaching this
    /// configuration class from the initial one.
    pub depth: u32,
    /// Indices of canonical successor states (deduplicated, discovery order).
    pub successors: Vec<usize>,
    /// Whether no permissible pair is effective here.
    pub stable: bool,
    /// Whether this is a stable state satisfying the terminal spec.
    pub good_terminal: bool,
}

/// What went wrong at a state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A stable reachable configuration fails the terminal spec: a reachable
    /// deadlock/starvation or a wrong terminal shape.
    BadTerminal,
    /// A reachable configuration has no path to any good terminal: a fair scheduler
    /// may never terminate correctly from here.
    Unfair,
    /// The production machinery disagreed with itself (index vs scan vs enumeration,
    /// an incrementally maintained index diverging from its recount after an apply,
    /// apply reporting an ineffective effective pair, or a broken embedding
    /// invariant).
    OracleMismatch,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::BadTerminal => write!(f, "bad-terminal"),
            ViolationKind::Unfair => write!(f, "unfair"),
            ViolationKind::OracleMismatch => write!(f, "oracle-mismatch"),
        }
    }
}

/// A property violation, carrying a minimal replayable trace.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Index of the offending state in [`Exploration::states`].
    pub state: usize,
    /// Which property failed.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub detail: String,
    /// Shortest interaction sequence from the initial configuration to the offending
    /// state (BFS parents, so minimal by construction).
    pub path: Vec<PairChoice>,
}

/// Safety valve on the number of canonical states; exceeding it is an error.
const MAX_STATES: usize = 2_000_000;

/// Explores every configuration reachable from the initial world of `n` nodes of
/// `protocol`, breadth-first, and checks the three verified properties on the graph.
///
/// # Errors
/// If `n` exceeds [`canon::MAX_NODES`], the state cap is exceeded, or a
/// configuration cannot be rebuilt (the latter would itself be a machinery bug,
/// reported eagerly).
pub fn explore<P: VerifiedProtocol>(protocol: P, n: usize) -> Result<Exploration<P>, String> {
    if n > canon::MAX_NODES {
        return Err(format!(
            "n = {n}: canonical keys hold at most {} nodes",
            canon::MAX_NODES
        ));
    }
    let initial = World::new(protocol.clone(), n);
    let init_config = canon::extract(&initial);
    let init_key = canon::canonical_key(&protocol, &init_config);
    let mut states = vec![StateRec {
        config: init_config,
        key: init_key.clone(),
        parent: None,
        depth: 0,
        successors: Vec::new(),
        stable: false,
        good_terminal: false,
    }];
    let mut index: HashMap<Vec<u8>, usize> = HashMap::from([(init_key, 0)]);
    let mut violations = Vec::new();
    let mut edges = 0usize;
    let mut queue = VecDeque::from([0usize]);

    while let Some(at) = queue.pop_front() {
        let world = canon::rebuild(&protocol, &states[at].config)?;
        let depth = states[at].depth;
        let pairs = world
            .enumerate_permissible(usize::MAX)
            .expect("unbounded enumeration cannot exceed its budget");
        let mut effective = 0usize;
        let mut successors = Vec::new();
        let mut mismatch: Option<String> = None;
        for pair in &pairs {
            let choice = PairChoice {
                a: pair.a,
                pa: pair.pa,
                b: pair.b,
                pb: pair.pb,
            };
            let Some(interaction) =
                world.effective_interaction_at(pair.a, pair.pa, pair.b, pair.pb)
            else {
                continue;
            };
            effective += 1;
            // The edge is taken on a fresh copy, so `world` stays this state's
            // configuration. Querying stability first builds the copy's pair
            // index, which the apply then maintains incrementally.
            let mut next = canon::rebuild(&protocol, &states[at].config)?;
            let _ = next.is_stable();
            let outcome = next.apply(&interaction);
            let checked = if !outcome.effective {
                Err(format!(
                    "effective_interaction_at said {choice} is effective, apply disagreed"
                ))
            } else if !next.check_invariants() {
                Err(format!("embedding invariants broken after {choice}"))
            } else {
                next.validate_pair_index()
                    .map_err(|e| format!("pair index diverged after {choice}: {e}"))
            };
            if let Err(detail) = checked {
                mismatch.get_or_insert(detail);
                continue;
            }
            let succ_config = canon::extract(&next);
            let succ_key = canon::canonical_key(&protocol, &succ_config);
            let succ = match index.get(&succ_key) {
                Some(&idx) => idx,
                None => {
                    let idx = states.len();
                    if idx >= MAX_STATES {
                        return Err(format!("state cap {MAX_STATES} exceeded"));
                    }
                    index.insert(succ_key.clone(), idx);
                    states.push(StateRec {
                        config: succ_config,
                        key: succ_key,
                        parent: Some((at, choice)),
                        depth: depth + 1,
                        successors: Vec::new(),
                        stable: false,
                        good_terminal: false,
                    });
                    queue.push_back(idx);
                    idx
                }
            };
            if !successors.contains(&succ) {
                successors.push(succ);
                edges += 1;
            }
        }
        // Stability must be answered identically by the enumeration above, the
        // O(1) indexed answer and the exhaustive reference scan.
        let enumerated_stable = effective == 0;
        if world.is_stable() != enumerated_stable || world.is_stable_scan() != enumerated_stable {
            mismatch.get_or_insert(format!(
                "stability oracles disagree: enumerated={enumerated_stable}, \
                 indexed={}, scan={}",
                world.is_stable(),
                world.is_stable_scan()
            ));
        }
        if let Some(detail) = mismatch {
            violations.push(Violation {
                state: at,
                kind: ViolationKind::OracleMismatch,
                detail,
                path: path_to(&states, at),
            });
        }
        states[at].successors = successors;
        states[at].stable = enumerated_stable;
        if enumerated_stable {
            match protocol.check_terminal(&world) {
                Ok(()) => states[at].good_terminal = true,
                Err(detail) => violations.push(Violation {
                    state: at,
                    kind: ViolationKind::BadTerminal,
                    detail,
                    path: path_to(&states, at),
                }),
            }
        }
    }

    // Fair termination = backward reachability from the good terminals: a state
    // that cannot reach any good terminal stays avoidable forever even under a
    // fair scheduler, so reachability of the goal from *every* state is exactly
    // the guarantee "fairness implies eventual correct termination".
    let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); states.len()];
    for (i, rec) in states.iter().enumerate() {
        for &s in &rec.successors {
            predecessors[s].push(i);
        }
    }
    let mut can_finish = vec![false; states.len()];
    let mut back: VecDeque<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, r)| r.good_terminal)
        .map(|(i, _)| i)
        .collect();
    for &i in &back {
        can_finish[i] = true;
    }
    while let Some(i) = back.pop_front() {
        for &p in &predecessors[i] {
            if !can_finish[p] {
                can_finish[p] = true;
                back.push_back(p);
            }
        }
    }
    for (i, finishes) in can_finish.iter().enumerate() {
        if !finishes {
            violations.push(Violation {
                state: i,
                kind: ViolationKind::Unfair,
                detail: "no path to any good terminal from here".into(),
                path: path_to(&states, i),
            });
        }
    }
    violations.sort_by_key(|v| (v.path.len(), v.state));

    Ok(Exploration {
        protocol,
        n,
        states,
        violations,
        edges,
    })
}

fn path_to<P: VerifiedProtocol>(states: &[StateRec<P>], mut at: usize) -> Vec<PairChoice> {
    let mut path = Vec::new();
    while let Some((parent, choice)) = states[at].parent {
        path.push(choice);
        at = parent;
    }
    path.reverse();
    path
}

/// The fully explored configuration graph plus verification verdicts.
pub struct Exploration<P: VerifiedProtocol> {
    protocol: P,
    n: usize,
    /// Every canonical reachable configuration, in BFS discovery order.
    pub states: Vec<StateRec<P>>,
    /// All property violations, sorted by trace length (shortest first).
    pub violations: Vec<Violation>,
    /// Number of canonical edges (deduplicated per source state).
    pub edges: usize,
}

impl<P: VerifiedProtocol> Exploration<P> {
    /// Population size explored.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of canonical reachable configurations.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of stable configurations satisfying the terminal spec.
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        self.states.iter().filter(|r| r.good_terminal).count()
    }

    /// Number of stable configurations (good or bad).
    #[must_use]
    pub fn stable_count(&self) -> usize {
        self.states.iter().filter(|r| r.stable).count()
    }

    /// Largest BFS depth, i.e. the diameter of the graph as seen from the initial
    /// configuration.
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        self.states.iter().map(|r| r.depth).max().unwrap_or(0)
    }

    /// Index of the canonical state with this key, if reachable.
    #[must_use]
    pub fn index_of(&self, key: &[u8]) -> Option<usize> {
        self.states.iter().position(|r| r.key == key)
    }

    /// The canonical key of `world`'s current configuration.
    #[must_use]
    pub fn key_of(&self, world: &World<P>) -> Vec<u8> {
        canon::canonical_key(&self.protocol, &canon::extract(world))
    }

    /// Shortest interaction sequence from the initial configuration to state `idx`.
    #[must_use]
    pub fn path_to(&self, idx: usize) -> Vec<PairChoice> {
        path_to(&self.states, idx)
    }

    /// Replays a pair-choice path from the fresh initial world through the production
    /// machinery and returns the resulting world.
    ///
    /// # Errors
    /// If some choice is not effective at its step — which for paths produced by this
    /// exploration would indicate a reproducibility bug.
    pub fn replay(&self, path: &[PairChoice]) -> Result<World<P>, String> {
        let mut world = World::new(self.protocol.clone(), self.n);
        for (step, choice) in path.iter().enumerate() {
            let interaction = world
                .effective_interaction_at(choice.a, choice.pa, choice.b, choice.pb)
                .ok_or_else(|| format!("step {step}: {choice} is not effective on replay"))?;
            world.apply(&interaction);
        }
        Ok(world)
    }

    /// Exports state `idx` as a PR-5 format snapshot (seed 0), so a counterexample
    /// can be pinned as an on-disk regression fixture and resumed later.
    #[must_use]
    pub fn counterexample_snapshot(&self, idx: usize) -> Snapshot {
        let mut sim = Simulation::new(
            self.protocol.clone(),
            SimulationConfig::new(self.n).with_seed(0),
        );
        canon::install(sim.world_mut(), &self.states[idx].config)
            .expect("explored configurations are realizable");
        sim.checkpoint().expect("checkpoint")
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} n={}: {} states, {} edges, {} stable ({} good terminals), depth {}, {} violation(s)",
            self.protocol.name(),
            self.n,
            self.state_count(),
            self.edges,
            self.stable_count(),
            self.terminal_count(),
            self.max_depth(),
            self.violations.len()
        )
    }

    /// Panics with a readable report if any violation was found. Test helper.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "{}:\n{}",
            self.summary(),
            self.violations
                .iter()
                .take(5)
                .map(|v| format!(
                    "  [{}] state {} (depth {}): {}\n    trace: {}",
                    v.kind,
                    v.state,
                    self.states[v.state].depth,
                    v.detail,
                    v.path
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
