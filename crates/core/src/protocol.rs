//! The protocol trait (Definition 1 of the paper).

use crate::NodeId;
use nc_geometry::{Dim, Dir};
use std::fmt::Debug;

/// The outcome of an effective interaction: the new state of the two participants and the
/// new state of the bond joining the two interacting ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition<S> {
    /// New state of the first participant (the one whose `(state, port)` matched the
    /// first argument of [`Protocol::transition`]).
    pub a: S,
    /// New state of the second participant.
    pub b: S,
    /// New state of the bond between the two interacting ports (`true` = active).
    pub bond: bool,
}

/// A 2D or 3D protocol: `(Q, q0, Q_out, δ)` in the paper's notation, possibly with a
/// distinguished initial leader state.
///
/// Interactions are *unordered*: when the scheduler selects the pair
/// `((v₁, p₁), (v₂, p₂))`, the simulator first asks
/// `transition(state(v₁), p₁, state(v₂), p₂, bonded)` and, if that returns `None`, the
/// symmetric `transition(state(v₂), p₂, state(v₁), p₁, bonded)`. Returning `None` from
/// both means the interaction is *ineffective* — nothing changes.
///
/// States may be rich Rust types; the basic constructors of Section 4 use small
/// finite-state enums, whereas the counting and universal constructors of Sections 5–6
/// intentionally give the unique leader an unbounded local state (the paper stores that
/// information distributedly on a line; see the `nc-protocols` crate for both styles).
///
/// Protocols (and their states) are `Send + Sync`: the transition function is a pure
/// table lookup shared by every node, and a world (with its protocol) moves to whichever
/// service worker runs its next slice. All protocols in this workspace are plain data;
/// protocols owning shared computers hold them through `Arc`.
pub trait Protocol: Send + Sync {
    /// Per-node state type (`Q` plus any leader bookkeeping).
    type State: Clone + PartialEq + Debug + Send + Sync;

    /// The dimensionality of the model this protocol runs in (ports per node).
    fn dim(&self) -> Dim {
        Dim::Two
    }

    /// The initial state of `node` in a population of size `n`.
    ///
    /// Protocols with a pre-elected unique leader conventionally make node 0 the leader;
    /// leaderless protocols ignore `node`. `n` is provided only so that UID-based
    /// protocols can assign identifiers — anonymous protocols must not peek at it.
    fn initial_state(&self, node: NodeId, n: usize) -> Self::State;

    /// The transition function `δ((a, p₁), (b, p₂), bonded)`.
    ///
    /// Return `None` for ineffective interactions. The simulator never calls this for
    /// halted participants (see [`Protocol::is_halted`]).
    fn transition(
        &self,
        a: &Self::State,
        pa: Dir,
        b: &Self::State,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<Self::State>>;

    /// Whether `state` is an *output* state (`Q_out`). The output shape of a
    /// configuration consists of the nodes in output states and the active bonds between
    /// them.
    fn is_output(&self, _state: &Self::State) -> bool {
        true
    }

    /// Whether `state` is a *halted* state (`Q_halt`): every rule involving a halted node
    /// is ineffective, which the simulator enforces regardless of what
    /// [`Protocol::transition`] would return.
    fn is_halted(&self, _state: &Self::State) -> bool {
        false
    }

    /// A short human-readable protocol name (used in reports and experiment tables).
    fn name(&self) -> &str {
        "protocol"
    }
}

impl<P: Protocol + ?Sized> Protocol for &P {
    type State = P::State;

    fn dim(&self) -> Dim {
        (**self).dim()
    }

    fn initial_state(&self, node: NodeId, n: usize) -> Self::State {
        (**self).initial_state(node, n)
    }

    fn transition(
        &self,
        a: &Self::State,
        pa: Dir,
        b: &Self::State,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<Self::State>> {
        (**self).transition(a, pa, b, pb, bonded)
    }

    fn is_output(&self, state: &Self::State) -> bool {
        (**self).is_output(state)
    }

    fn is_halted(&self, state: &Self::State) -> bool {
        (**self).is_halted(state)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;

    impl Protocol for Nop {
        type State = u8;

        fn initial_state(&self, _node: NodeId, _n: usize) -> u8 {
            0
        }

        fn transition(
            &self,
            _a: &u8,
            _pa: Dir,
            _b: &u8,
            _pb: Dir,
            _c: bool,
        ) -> Option<Transition<u8>> {
            None
        }
    }

    #[test]
    fn defaults() {
        let p = Nop;
        assert_eq!(p.dim(), Dim::Two);
        assert!(p.is_output(&0));
        assert!(!p.is_halted(&0));
        assert_eq!(p.name(), "protocol");
        // Blanket impl for references.
        let r = &p;
        assert_eq!(r.initial_state(NodeId::new(0), 5), 0);
        assert!(r.transition(&0, Dir::Up, &0, Dir::Down, false).is_none());
    }
}
