//! The typed rebuild recipe of a persisted witness, and the one
//! record / replay pair every witness goes through.
//!
//! A `Violated` verdict — a conformance entry's or a frontier cell's —
//! persists its witness run to the trace store; the header's free-form
//! metadata must then carry everything needed to rebuild the deviant plan
//! *from scratch*: which base plan (`entry`, plus the header's own
//! `n`/`k`/`t`), and the `(strategy, coalition, deadlock)` deviation over
//! it. [`WitnessRecipe`] gives that contract a type, and
//! [`record_witness`] / [`replay_witness`] are its only writer and reader —
//! `experiments -- --conformance`, `--frontier`, `--replay` and the
//! integration suite all call these two.

use crate::codec::RunHeader;
use crate::replay::{replay_plan, ReplayError, ReplayReport};
use crate::store::{RunId, StoredRun, TraceStore};
use mediator_core::adversary::{sweep_unit_plan, Conformance, SweepPlan, SweepUnit};
use mediator_core::scenario::SessionPlan;

/// The metadata recipe a witness run carries in its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessRecipe {
    /// Which base plan the deviation applies to: a conformance entry's
    /// name, or [`FRONTIER_ENTRY`](Self::FRONTIER_ENTRY) for the §6.4
    /// companion plan at the header's `(n, k, t)`.
    pub entry: String,
    /// Frontier witnesses only: the theorem by paper number (`"4.1"`) and
    /// the cell's stable atlas key (`thm4.1-n7-k2-t0`), for display and
    /// cross-referencing against `FRONTIER.json`.
    pub cell: Option<(String, String)>,
    /// The generated deviant strategy the witness exercises
    /// (e.g. `deadlock-if-bit=0`).
    pub strategy: String,
    /// The colluding coalition, ascending player ids.
    pub coalition: Vec<usize>,
    /// The deadlock/punishment action (`⊥`) the resolve step falls back
    /// to.
    pub deadlock: u64,
}

impl WitnessRecipe {
    /// The `entry` value that marks a run as a frontier-atlas witness.
    pub const FRONTIER_ENTRY: &'static str = "frontier-cell";

    /// Renders the recipe as header metadata, in stable key order.
    pub fn meta(&self) -> Vec<(String, String)> {
        let coalition = self
            .coalition
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut meta = vec![("entry".to_string(), self.entry.clone())];
        if let Some((theorem, key)) = &self.cell {
            meta.push(("theorem".to_string(), theorem.clone()));
            meta.push(("cell".to_string(), key.clone()));
        }
        meta.push(("strategy".to_string(), self.strategy.clone()));
        meta.push(("coalition".to_string(), coalition));
        meta.push(("deadlock".to_string(), self.deadlock.to_string()));
        meta
    }

    /// Parses a recipe back out of a persisted header;
    /// [`ReplayError::NoRecipe`] names the first key that is missing or
    /// malformed — a run some other recorder stored (a service session
    /// behind a `StoreSink`) carries none.
    pub fn from_header(header: &RunHeader) -> Result<Self, ReplayError> {
        let value = |key| header.meta_value(key).ok_or(ReplayError::NoRecipe { key });
        let entry = value("entry")?.to_string();
        let strategy = value("strategy")?.to_string();
        let coalition = value("coalition")?
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| p.parse().ok())
            .collect::<Option<Vec<usize>>>()
            .ok_or(ReplayError::NoRecipe { key: "coalition" })?;
        let deadlock = value("deadlock")?
            .parse()
            .map_err(|_| ReplayError::NoRecipe { key: "deadlock" })?;
        Ok(WitnessRecipe {
            entry,
            cell: match (header.meta_value("theorem"), header.meta_value("cell")) {
                (Some(theorem), Some(key)) => Some((theorem.to_string(), key.to_string())),
                _ => None,
            },
            strategy,
            coalition,
            deadlock,
        })
    }

    /// The deviant cell this recipe names over `base`, through the sweep's
    /// own `(strategy, coalition)` lookup — the one place a strategy no
    /// battery generates (a stale or hand-edited store) is diagnosed.
    fn deviant_plan<P: SweepPlan>(&self, base: &P) -> Result<P, ReplayError> {
        if self
            .coalition
            .iter()
            .any(|&member| member >= base.players())
        {
            return Err(ReplayError::NoRecipe { key: "coalition" });
        }
        // Only the deadlock action of the configuration reaches cell
        // generation; the claim and the sampling plan play no part in it.
        let cfg = Conformance::new(0.0, self.coalition.len(), 0).deadlock_action(self.deadlock);
        let unit = SweepUnit {
            strategy: Some(self.strategy.clone()),
            coalition: self.coalition.clone(),
        };
        sweep_unit_plan(base, &unit, &cfg).ok_or_else(|| ReplayError::UnknownStrategy {
            strategy: self.strategy.clone(),
        })
    }
}

/// Persists one witness: rebuilds `recipe`'s deviant cell over `base`,
/// re-runs it at the header's `(kind, seed)` — the plan's own scheduler
/// when the header names none — and records the trace under `header` with
/// the recipe as its metadata, so [`replay_witness`] needs nothing else.
pub fn record_witness<P: SweepPlan>(
    store: &mut TraceStore,
    mut header: RunHeader,
    base: &P,
    recipe: &WitnessRecipe,
) -> Result<RunId, ReplayError> {
    let cell = recipe.deviant_plan(base)?;
    let kind = header
        .kind
        .clone()
        .unwrap_or_else(|| base.default_scheduler());
    let outcome = cell.run_one(&kind, header.seed);
    header.meta = recipe.meta();
    Ok(store.record(header, &outcome)?)
}

/// Re-enacts one stored witness over `base` — the plan its recipe's
/// `entry` names, which the caller resolves — and pins the re-recorded
/// trace against the store through [`replay_plan`]. A run without a
/// usable recipe, or naming a strategy `base` does not generate, is a
/// typed error, never a panic and never a pass.
pub fn replay_witness<P: SweepPlan + SessionPlan>(
    base: &P,
    run: &StoredRun,
) -> Result<ReplayReport, ReplayError> {
    let recipe = WitnessRecipe::from_header(&run.header)?;
    replay_plan(&recipe.deviant_plan(base)?, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_core::frontier::companion_plan;
    use mediator_sim::SchedulerKind;

    fn recipe() -> WitnessRecipe {
        WitnessRecipe {
            entry: WitnessRecipe::FRONTIER_ENTRY.to_string(),
            cell: Some(("4.1".to_string(), "thm4.1-n7-k2-t0".to_string())),
            strategy: "deadlock-if-bit=0".to_string(),
            coalition: vec![0, 1],
            deadlock: 2,
        }
    }

    fn parsed(meta: Vec<(String, String)>) -> Result<WitnessRecipe, ReplayError> {
        let mut header = RunHeader::bare(17, 3);
        header.meta = meta;
        WitnessRecipe::from_header(&header)
    }

    #[test]
    fn meta_roundtrips_through_a_header() {
        let mut r = recipe();
        assert_eq!(parsed(r.meta()), Ok(r.clone()));
        r.coalition.clear();
        assert_eq!(parsed(r.meta()), Ok(r.clone()));
        r.entry = "naive_mediator_sec6_4".to_string();
        r.cell = None;
        assert_eq!(parsed(r.meta()), Ok(r));
    }

    #[test]
    fn both_witness_kinds_render_the_keys_they_always_had() {
        // The key lists PR 8 (conformance) and PR 10 (frontier) wrote:
        // WITNESS.mtrc and FRONTIER-WITNESS.mtrc depend on this order.
        let keys = |r: &WitnessRecipe| r.meta().into_iter().map(|kv| kv.0).collect::<Vec<_>>();
        let frontier = recipe();
        let with_cell = [
            "entry",
            "theorem",
            "cell",
            "strategy",
            "coalition",
            "deadlock",
        ];
        assert_eq!(keys(&frontier), with_cell);
        assert_eq!(frontier.meta()[0].1, "frontier-cell");
        assert_eq!(frontier.meta()[4].1, "0,1");
        let conformance = WitnessRecipe {
            entry: "naive_mediator_sec6_4".to_string(),
            cell: None,
            ..frontier
        };
        assert_eq!(
            keys(&conformance),
            ["entry", "strategy", "coalition", "deadlock"]
        );
    }

    #[test]
    fn a_header_without_a_recipe_is_a_typed_error() {
        let no_recipe = |key| Err(ReplayError::NoRecipe { key });
        assert_eq!(parsed(Vec::new()), no_recipe("entry"));
        // What a `StoreSink`-recorded service session looks like.
        let service = vec![("entry".to_string(), "svc-session".to_string())];
        assert_eq!(parsed(service), no_recipe("strategy"));
        // Malformed values are rejected, not mangled.
        for (key, bad) in [("coalition", "0,x"), ("deadlock", "⊥")] {
            let mut meta = recipe().meta();
            meta.iter_mut().find(|kv| kv.0 == key).unwrap().1 = bad.to_string();
            assert_eq!(parsed(meta), no_recipe(key));
        }
    }

    #[test]
    fn recorded_witnesses_replay_and_unusable_ones_fail_typed() {
        let base = companion_plan(7, 2, 0);
        let mut store = TraceStore::in_memory();
        let mut header = RunHeader::bare(0, 15);
        header.kind = Some(SchedulerKind::Random);
        let id = record_witness(&mut store, header.clone(), &base, &recipe()).expect("records");
        let mut run = store.load(id).expect("loads");
        assert_eq!(run.header.meta, recipe().meta());
        let report = replay_witness(&base, &run).expect("replays byte-identically");
        assert_eq!(report.termination, run.outcome.termination);

        // A strategy no battery generates is refused on both sides, and so
        // is a coalition member the plan does not have — never a panic.
        let stale = WitnessRecipe {
            strategy: "deadlock-if-bit=7".to_string(),
            ..recipe()
        };
        let unknown = ReplayError::UnknownStrategy {
            strategy: stale.strategy.clone(),
        };
        let refused = record_witness(&mut store, header, &base, &stale);
        assert_eq!(refused, Err(unknown.clone()));
        run.header.meta = stale.meta();
        assert_eq!(replay_witness(&base, &run), Err(unknown));
        let mut outsider = recipe();
        outsider.coalition = vec![0, 7];
        run.header.meta = outsider.meta();
        let no_recipe = ReplayError::NoRecipe { key: "coalition" };
        assert_eq!(replay_witness(&base, &run), Err(no_recipe));
    }
}
