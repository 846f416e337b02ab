//! Class 4 of the pair decomposition: multi×multi pairs, enumerated under a budget.

use super::*;

impl<P: Protocol> World<P> {
    /// The multi-node components of the configuration, or `None` when the candidate
    /// universe of their pairwise node products exceeds `budget`. Shared ground truth
    /// for [`World::enumerate_cross_multi`] and the stability fast path, so both agree
    /// on what counts as a multi component and when enumeration is affordable.
    fn cross_multi_components(&self, budget: u64) -> Option<Vec<usize>> {
        let multi: Vec<usize> = (0..self.components.len())
            .filter(|&i| self.components[i].as_ref().is_some_and(|c| c.len() >= 2))
            .collect();
        let size = |c: usize| self.components[c].as_ref().map_or(0, Component::len) as u64;
        let universe = Self::cross_component_pairs(&multi).fold(0u64, |acc, (ca, cb)| {
            acc.saturating_add(size(ca) * size(cb))
        });
        (universe <= budget).then_some(multi)
    }

    /// The default budget for per-version multi×multi cross-pair work, in node pairs.
    pub(crate) fn cross_multi_budget(&self) -> u64 {
        (CROSS_BUDGET_PER_NODE * self.len()) as u64
    }

    /// Visits every permissible pair between the two given components with its
    /// effectiveness; stops early (returning `true`) when `visit` does.
    fn visit_cross_pair(
        &self,
        ca: usize,
        cb: usize,
        visit: &mut impl FnMut(Interaction, bool) -> bool,
    ) -> bool {
        let ports = self.dim.dirs();
        let comp_a = self.components[ca].as_ref().expect("live slot");
        let comp_b = self.components[cb].as_ref().expect("live slot");
        for &a in comp_a.members() {
            for &b in comp_b.members() {
                for &pa in ports {
                    for &pb in ports {
                        if let Some(interaction) = self.interaction(a, pa, b, pb) {
                            let effective = self.effective_interaction_at(a, pa, b, pb).is_some();
                            if visit(interaction, effective) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// The pairs `(ca, cb)`, `ca` before `cb` in `multi`, in the canonical order the
    /// multi×multi enumeration and the stability fast path both walk.
    fn cross_component_pairs(multi: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
        multi
            .iter()
            .enumerate()
            .flat_map(|(i, &ca)| multi[i + 1..].iter().map(move |&cb| (ca, cb)))
    }

    /// Enumerates the permissible pairs spanning two *multi-node* components together
    /// with their effectiveness, or `None` when the candidate universe (node pairs
    /// across multi-component pairs) exceeds `budget`. This is the one class of the
    /// pair decomposition whose permissibility depends on non-local geometry (shape
    /// collision), so it is enumerated per frozen configuration instead of being
    /// maintained incrementally; in single-growth workloads it is empty and costs
    /// `O(components)`.
    pub(crate) fn enumerate_cross_multi(&self, budget: u64) -> Option<Vec<(Interaction, bool)>> {
        let multi = self.cross_multi_components(budget)?;
        let mut out = Vec::new();
        for (ca, cb) in Self::cross_component_pairs(&multi) {
            self.visit_cross_pair(ca, cb, &mut |interaction, effective| {
                out.push((interaction, effective));
                false
            });
        }
        Some(out)
    }

    /// Whether any permissible pair spanning two multi-node components is effective,
    /// or `None` when the multi×multi candidate universe exceeds `budget` (early exit
    /// on the first effective pair; no allocation beyond the component list).
    pub(super) fn any_effective_cross_multi(&self, budget: u64) -> Option<bool> {
        let multi = self.cross_multi_components(budget)?;
        let any = Self::cross_component_pairs(&multi)
            .any(|(ca, cb)| self.visit_cross_pair(ca, cb, &mut |_, effective| effective));
        Some(any)
    }
}
