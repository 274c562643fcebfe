//! The normal-form Bayesian game representation.

use std::fmt;
use std::sync::Arc;

/// Index of a type in a player's type space.
pub type TypeIx = usize;
/// Index of an action in a player's action set.
pub type ActionIx = usize;

/// Utility function: `(type_profile, action_profile) -> per-player utilities`.
type UtilityFn = dyn Fn(&[TypeIx], &[ActionIx]) -> Vec<f64> + Send + Sync;

/// A finite normal-form Bayesian game (the paper's underlying game `Γ`).
///
/// Players `0..n` have types from finite type spaces with a commonly-known
/// joint distribution; each simultaneously picks one action; utilities
/// depend on the full type and action profiles.
///
/// # Example
///
/// ```
/// use mediator_games::BayesianGame;
///
/// // Matching pennies: zero-sum, no types.
/// let g = BayesianGame::complete_info(
///     "matching-pennies",
///     vec![2, 2],
///     |a| {
///         let win = if a[0] == a[1] { 1.0 } else { -1.0 };
///         vec![win, -win]
///     },
/// );
/// assert_eq!(g.n(), 2);
/// assert_eq!(g.utilities(&[0, 0], &[1, 1]), vec![1.0, -1.0]);
/// ```
#[derive(Clone)]
pub struct BayesianGame {
    name: String,
    type_counts: Vec<usize>,
    action_counts: Vec<usize>,
    /// Joint distribution over type profiles; probabilities sum to 1.
    type_dist: Vec<(Vec<TypeIx>, f64)>,
    utility: Arc<UtilityFn>,
}

impl fmt::Debug for BayesianGame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BayesianGame")
            .field("name", &self.name)
            .field("type_counts", &self.type_counts)
            .field("action_counts", &self.action_counts)
            .field("type_profiles", &self.type_dist.len())
            .finish()
    }
}

impl BayesianGame {
    /// Creates a Bayesian game.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent, the distribution is empty,
    /// its probabilities do not sum to 1 (±1e-9), or a type index is out of
    /// range.
    pub fn new(
        name: impl Into<String>,
        type_counts: Vec<usize>,
        action_counts: Vec<usize>,
        type_dist: Vec<(Vec<TypeIx>, f64)>,
        utility: impl Fn(&[TypeIx], &[ActionIx]) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        assert_eq!(
            type_counts.len(),
            action_counts.len(),
            "player count mismatch"
        );
        assert!(!type_dist.is_empty(), "type distribution must be non-empty");
        let total: f64 = type_dist.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "type distribution sums to {total}, not 1"
        );
        for (tp, p) in &type_dist {
            assert_eq!(tp.len(), type_counts.len(), "type profile length mismatch");
            assert!(*p >= 0.0, "negative probability");
            for (i, &t) in tp.iter().enumerate() {
                assert!(
                    t < type_counts[i],
                    "type index {t} out of range for player {i}"
                );
            }
        }
        BayesianGame {
            name: name.into(),
            type_counts,
            action_counts,
            type_dist,
            utility: Arc::new(utility),
        }
    }

    /// Creates a complete-information game (every player has a single type).
    pub fn complete_info(
        name: impl Into<String>,
        action_counts: Vec<usize>,
        utility: impl Fn(&[ActionIx]) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        let n = action_counts.len();
        BayesianGame::new(
            name,
            vec![1; n],
            action_counts,
            vec![(vec![0; n], 1.0)],
            move |_t, a| utility(a),
        )
    }

    /// The game's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.type_counts.len()
    }

    /// Number of types of each player.
    pub fn type_counts(&self) -> &[usize] {
        &self.type_counts
    }

    /// Number of actions of each player.
    pub fn action_counts(&self) -> &[usize] {
        &self.action_counts
    }

    /// The joint type distribution (profiles with positive probability).
    pub fn type_dist(&self) -> &[(Vec<TypeIx>, f64)] {
        &self.type_dist
    }

    /// Per-player utilities for a pure profile.
    pub fn utilities(&self, types: &[TypeIx], actions: &[ActionIx]) -> Vec<f64> {
        debug_assert_eq!(types.len(), self.n());
        debug_assert_eq!(actions.len(), self.n());
        (self.utility)(types, actions)
    }

    /// The type distribution conditioned on players in `coalition` having the
    /// types given by `profile` at those indices (the paper's `T(x_K)`).
    ///
    /// Returns an empty vector if the conditioning event has probability 0.
    pub fn type_dist_given(
        &self,
        coalition: &[usize],
        profile: &[TypeIx],
    ) -> Vec<(Vec<TypeIx>, f64)> {
        let mut matching: Vec<(Vec<TypeIx>, f64)> = self
            .type_dist
            .iter()
            .filter(|(tp, _)| coalition.iter().all(|&i| tp[i] == profile[i]))
            .cloned()
            .collect();
        let total: f64 = matching.iter().map(|(_, p)| p).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        for (_, p) in &mut matching {
            *p /= total;
        }
        matching
    }

    /// Iterates over all action profiles.
    pub fn action_profiles(&self) -> ProfileIter {
        ProfileIter::new(self.action_counts.clone())
    }

    /// Iterates over all type-profile assignments of the players in `subset`.
    pub fn type_profiles_of(&self, subset: &[usize]) -> ProfileIter {
        ProfileIter::new(subset.iter().map(|&i| self.type_counts[i]).collect())
    }
}

/// Odometer-style iterator over `Π counts[i]` index vectors.
#[derive(Debug, Clone)]
pub struct ProfileIter {
    counts: Vec<usize>,
    current: Option<Vec<usize>>,
}

impl ProfileIter {
    fn new(counts: Vec<usize>) -> Self {
        let current = if counts.contains(&0) {
            None
        } else {
            Some(vec![0; counts.len()])
        };
        ProfileIter { counts, current }
    }
}

impl Iterator for ProfileIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let out = self.current.clone()?;
        // Advance the odometer.
        let cur = self.current.as_mut().expect("checked above");
        let mut i = cur.len();
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            cur[i] += 1;
            if cur[i] < self.counts[i] {
                break;
            }
            cur[i] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin_game() -> BayesianGame {
        // Two players; player 0 has two equally likely types; actions {0,1};
        // both get 1 if player 1 matches player 0's type, else 0.
        BayesianGame::new(
            "coin",
            vec![2, 1],
            vec![2, 2],
            vec![(vec![0, 0], 0.5), (vec![1, 0], 0.5)],
            |t, a| {
                let u = if a[1] == t[0] { 1.0 } else { 0.0 };
                vec![u, u]
            },
        )
    }

    #[test]
    fn dimensions_and_utilities() {
        let g = coin_game();
        assert_eq!(g.n(), 2);
        assert_eq!(g.type_counts(), &[2, 1]);
        assert_eq!(g.utilities(&[1, 0], &[0, 1]), vec![1.0, 1.0]);
        assert_eq!(g.utilities(&[1, 0], &[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn profile_iterator_enumerates_all() {
        let g = coin_game();
        let profiles: Vec<_> = g.action_profiles().collect();
        assert_eq!(
            profiles,
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]
        );
    }

    #[test]
    fn profile_iterator_empty_on_zero_count() {
        let mut it = ProfileIter::new(vec![2, 0]);
        assert!(it.next().is_none());
    }

    #[test]
    fn subset_profile_iterators() {
        let g = coin_game();
        let tp: Vec<_> = g.type_profiles_of(&[0]).collect();
        assert_eq!(tp, vec![vec![0], vec![1]]);
    }

    #[test]
    fn conditioning_on_coalition_types() {
        let g = coin_game();
        let cond = g.type_dist_given(&[0], &[1, 0]);
        assert_eq!(cond.len(), 1);
        assert_eq!(cond[0].0, vec![1, 0]);
        assert!((cond[0].1 - 1.0).abs() < 1e-12);
        // Conditioning on nothing returns the full distribution.
        let all = g.type_dist_given(&[], &[0, 0]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn conditioning_on_impossible_event_is_empty() {
        let g = BayesianGame::new(
            "deterministic",
            vec![2, 1],
            vec![1, 1],
            vec![(vec![0, 0], 1.0)],
            |_, _| vec![0.0, 0.0],
        );
        assert!(g.type_dist_given(&[0], &[1, 0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn bad_distribution_rejected() {
        BayesianGame::new("bad", vec![1], vec![1], vec![(vec![0], 0.5)], |_, _| {
            vec![0.0]
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_type_index_rejected() {
        BayesianGame::new("bad", vec![1], vec![1], vec![(vec![3], 1.0)], |_, _| {
            vec![0.0]
        });
    }

    #[test]
    fn complete_info_constructor() {
        let g = BayesianGame::complete_info("pd", vec![2, 2], |a| vec![a[0] as f64, a[1] as f64]);
        assert_eq!(g.type_dist().len(), 1);
        assert_eq!(g.utilities(&[0, 0], &[1, 0]), vec![1.0, 0.0]);
    }
}
