//! MPC wire messages.

use mediator_bcast::AbaMsg;
use mediator_field::Fp;
use mediator_vss::{AvssMsg, DetectMsg};
use serde::{Deserialize, Serialize};

/// All messages of one MPC execution, instance-tagged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpcMsg {
    /// Robust-mode input dealing of `dealer` (AVSS sub-protocol).
    Avss {
        /// The dealing player.
        dealer: usize,
        /// Inner AVSS message.
        inner: AvssMsg,
    },
    /// ε-mode input dealing of `dealer` (detectable sharing).
    Detect {
        /// The dealing player.
        dealer: usize,
        /// Inner detection message.
        inner: DetectMsg,
    },
    /// Core-agreement vote: ABA instance `dealer` decides membership.
    Core {
        /// Whose membership is decided.
        dealer: usize,
        /// Inner agreement message.
        inner: AbaMsg,
    },
    /// A public opening point: my share of opening `id`.
    Open {
        /// Deterministic opening id (identical at every honest player).
        id: u64,
        /// The sender's share point.
        value: Fp,
    },
    /// A private output point: my share of circuit output `idx`, sent to
    /// the output's owner.
    Output {
        /// Index into the circuit's output declarations.
        idx: usize,
        /// The sender's share point.
        value: Fp,
    },
}

/// An [`Acs`](mediator_bcast::Acs) message, tagged with its instance.
impl From<(usize, AbaMsg)> for MpcMsg {
    fn from((dealer, inner): (usize, AbaMsg)) -> Self {
        MpcMsg::Core { dealer, inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let m = MpcMsg::Open {
            id: 3,
            value: Fp::new(9),
        };
        assert_eq!(m.clone(), m);
        let o = MpcMsg::Output {
            idx: 1,
            value: Fp::new(2),
        };
        assert_ne!(format!("{m:?}"), format!("{o:?}"));
    }
}
