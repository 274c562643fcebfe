//! Behavioural strategies, profiles, and coalition deviations.

use crate::game::{ActionIx, BayesianGame, TypeIx};

/// A behavioural strategy for one player: a map `T_i → Δ(A_i)`.
///
/// # Example
///
/// ```
/// use mediator_games::Strategy;
/// let s = Strategy::uniform(2, 3); // 2 types, 3 actions, uniform play
/// assert!((s.prob(1, 2) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// `rows[t][a]` = probability of action `a` given type `t`.
    rows: Vec<Vec<f64>>,
}

impl Strategy {
    /// Creates a strategy from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if any row is empty or does not sum to 1 (±1e-9).
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "strategy needs at least one type row");
        for row in &rows {
            assert!(!row.is_empty(), "strategy row needs at least one action");
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "strategy row sums to {s}");
            assert!(row.iter().all(|&p| p >= -1e-12), "negative probability");
        }
        Strategy { rows }
    }

    /// The pure strategy playing `action` regardless of type.
    pub fn pure(types: usize, actions: usize, action: ActionIx) -> Self {
        assert!(action < actions);
        let mut row = vec![0.0; actions];
        row[action] = 1.0;
        Strategy {
            rows: vec![row; types],
        }
    }

    /// The uniformly-mixed strategy.
    pub fn uniform(types: usize, actions: usize) -> Self {
        Strategy {
            rows: vec![vec![1.0 / actions as f64; actions]; types],
        }
    }

    /// Probability of playing `a` given type `t`.
    pub fn prob(&self, t: TypeIx, a: ActionIx) -> f64 {
        self.rows[t][a]
    }

    /// Number of types this strategy covers.
    pub fn num_types(&self) -> usize {
        self.rows.len()
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.rows[0].len()
    }
}

/// A strategy profile: one [`Strategy`] per player.
pub type StrategyProfile = Vec<Strategy>;

/// Validates that `profile` matches the game's dimensions.
///
/// # Panics
///
/// Panics on any mismatch — profiles are caller-constructed data and a
/// dimension error is a programming bug.
pub fn validate_profile(game: &BayesianGame, profile: &StrategyProfile) {
    assert_eq!(
        profile.len(),
        game.n(),
        "profile has wrong number of players"
    );
    for (i, s) in profile.iter().enumerate() {
        assert_eq!(
            s.num_types(),
            game.type_counts()[i],
            "player {i}: wrong type count"
        );
        assert_eq!(
            s.num_actions(),
            game.action_counts()[i],
            "player {i}: wrong action count"
        );
    }
}

/// A *coalition deviation*: a possibly-correlated joint strategy for a
/// coalition, as a function of the coalition's joint type.
///
/// The paper's deviating coalitions share their type information and may
/// correlate their moves (they can talk to each other), so a deviation maps
/// the coalition's joint type profile to a distribution over joint action
/// profiles of the coalition.
#[derive(Debug, Clone)]
pub struct CoalitionDeviation {
    /// Players in the coalition (sorted, no duplicates).
    pub members: Vec<usize>,
    /// `table[joint_type_index]` = distribution over joint actions, where
    /// joint indices enumerate the member type/action profiles
    /// lexicographically (member order as in `members`).
    pub table: Vec<Vec<f64>>,
}

impl CoalitionDeviation {
    /// The deviation in which the coalition plays a fixed joint pure action
    /// regardless of type.
    pub fn pure(game: &BayesianGame, members: Vec<usize>, joint_action: &[ActionIx]) -> Self {
        let num_joint_types: usize = members.iter().map(|&i| game.type_counts()[i]).product();
        let num_joint_actions: usize = members.iter().map(|&i| game.action_counts()[i]).product();
        let idx = joint_action_index(game, &members, joint_action);
        let mut row = vec![0.0; num_joint_actions];
        row[idx] = 1.0;
        CoalitionDeviation {
            members,
            table: vec![row; num_joint_types.max(1)],
        }
    }

    /// Probability that the coalition plays joint action index `ja` given
    /// joint type index `jt`.
    pub fn prob(&self, jt: usize, ja: usize) -> f64 {
        self.table[jt][ja]
    }
}

/// Lexicographic index of a joint action of `members`.
pub fn joint_action_index(game: &BayesianGame, members: &[usize], joint: &[ActionIx]) -> usize {
    debug_assert_eq!(members.len(), joint.len());
    let mut idx = 0;
    for (m, &a) in members.iter().zip(joint) {
        idx = idx * game.action_counts()[*m] + a;
    }
    idx
}

/// Lexicographic index of a joint type assignment of `members`.
pub fn joint_type_index(game: &BayesianGame, members: &[usize], types: &[TypeIx]) -> usize {
    debug_assert_eq!(members.len(), types.len());
    let mut idx = 0;
    for (m, &t) in members.iter().zip(types) {
        idx = idx * game.type_counts()[*m] + t;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::BayesianGame;

    fn g() -> BayesianGame {
        BayesianGame::new(
            "t",
            vec![2, 1, 2],
            vec![2, 3, 2],
            vec![
                (vec![0, 0, 0], 0.25),
                (vec![0, 0, 1], 0.25),
                (vec![1, 0, 0], 0.25),
                (vec![1, 0, 1], 0.25),
            ],
            |_, _| vec![0.0; 3],
        )
    }

    #[test]
    fn pure_strategy_prob() {
        let s = Strategy::pure(2, 3, 1);
        assert_eq!(s.prob(0, 1), 1.0);
        assert_eq!(s.prob(1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn invalid_row_rejected() {
        Strategy::new(vec![vec![0.7, 0.7]]);
    }

    #[test]
    fn validate_profile_accepts_matching() {
        let game = g();
        let profile = vec![
            Strategy::uniform(2, 2),
            Strategy::uniform(1, 3),
            Strategy::uniform(2, 2),
        ];
        validate_profile(&game, &profile);
    }

    #[test]
    #[should_panic(expected = "wrong type count")]
    fn validate_profile_rejects_mismatch() {
        let game = g();
        let profile = vec![
            Strategy::uniform(1, 2),
            Strategy::uniform(1, 3),
            Strategy::uniform(2, 2),
        ];
        validate_profile(&game, &profile);
    }

    #[test]
    fn joint_indices_are_lexicographic() {
        let game = g();
        // Coalition {0, 1}: actions 2 × 3.
        assert_eq!(joint_action_index(&game, &[0, 1], &[0, 0]), 0);
        assert_eq!(joint_action_index(&game, &[0, 1], &[0, 2]), 2);
        assert_eq!(joint_action_index(&game, &[0, 1], &[1, 0]), 3);
        // Coalition {0, 2}: types 2 × 2.
        assert_eq!(joint_type_index(&game, &[0, 2], &[1, 1]), 3);
    }

    #[test]
    fn pure_coalition_deviation() {
        let game = g();
        let d = CoalitionDeviation::pure(&game, vec![0, 1], &[1, 2]);
        let ja = joint_action_index(&game, &[0, 1], &[1, 2]);
        for jt in 0..d.table.len() {
            assert_eq!(d.prob(jt, ja), 1.0);
        }
        assert_eq!(d.table.len(), 2); // player 0 has 2 types, player 1 has 1
    }
}
