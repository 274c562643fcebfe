//! The typed rebuild recipe of a persisted witness, and the one
//! record / replay pair every witness goes through.
//!
//! A `Violated` frontier cell persists its witness run to the trace store;
//! the header's free-form metadata must then carry everything needed to
//! rebuild the deviant plan *from scratch*: the cell (whose base plan is
//! the §6.4 companion plan at the header's own `n`/`k`/`t`), and the
//! `(strategy, coalition, deadlock)` deviation over it. [`WitnessRecipe`]
//! gives that contract a type, and [`record_witness`] / [`replay_witness`]
//! are its only writer and reader — `experiments -- --frontier`,
//! `--replay` and the integration suite all call these two.

use crate::codec::RunHeader;
use crate::replay::{replay_plan, ReplayError, ReplayReport};
use crate::store::{RunId, StoredRun, TraceStore};
use mediator_core::adversary::{sweep_unit_plan, Conformance, SweepUnit};
use mediator_core::scenario::{GameFamily, Plan};

/// The `entry` value every witness header carries first: the run is a
/// frontier-atlas witness.
const ENTRY: &str = "frontier-cell";

/// The metadata recipe a witness run carries in its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessRecipe {
    /// The theorem by paper number (`"4.1"`) and the cell's stable atlas
    /// key (`thm4.1-n7-k2-t0`), for display and cross-referencing against
    /// `FRONTIER.json`.
    pub cell: (String, String),
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
    /// Renders the recipe as header metadata, in stable key order:
    /// `entry` (always `frontier-cell`), `theorem`, `cell`, `strategy`,
    /// `coalition`, `deadlock`.
    pub fn meta(&self) -> Vec<(String, String)> {
        let coalition = self
            .coalition
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let (theorem, key) = &self.cell;
        [
            ("entry", ENTRY.to_string()),
            ("theorem", theorem.clone()),
            ("cell", key.clone()),
            ("strategy", self.strategy.clone()),
            ("coalition", coalition),
            ("deadlock", self.deadlock.to_string()),
        ]
        .map(|(key, value)| (key.to_string(), value))
        .into()
    }

    /// Parses a recipe back out of a persisted header;
    /// [`ReplayError::NoRecipe`] names the first key that is missing or
    /// malformed. An `entry` other than a frontier cell's is one no recipe
    /// rebuilds: a run some other recorder stored (a service session
    /// behind a `StoreSink`) carries none.
    pub fn from_header(header: &RunHeader) -> Result<Self, ReplayError> {
        let value = |key| header.meta_value(key).ok_or(ReplayError::NoRecipe { key });
        if value("entry")? != ENTRY {
            return Err(ReplayError::NoRecipe { key: "entry" });
        }
        let cell = (value("theorem")?.to_string(), value("cell")?.to_string());
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
            cell,
            strategy,
            coalition,
            deadlock,
        })
    }

    /// The deviant cell this recipe names over `base`, through the sweep's
    /// own `(strategy, coalition)` lookup — the one place a strategy no
    /// battery generates (a stale or hand-edited store) is diagnosed.
    fn deviant_plan<F: GameFamily>(&self, base: &Plan<F>) -> Result<Plan<F>, ReplayError> {
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
pub fn record_witness<F: GameFamily>(
    store: &mut TraceStore,
    mut header: RunHeader,
    base: &Plan<F>,
    recipe: &WitnessRecipe,
) -> Result<RunId, ReplayError> {
    let cell = recipe.deviant_plan(base)?;
    let kind = header
        .kind
        .clone()
        .unwrap_or_else(|| base.scheduler().clone());
    let outcome = cell.run_with(&kind, header.seed);
    header.meta = recipe.meta();
    Ok(store.record(header, &outcome)?)
}

/// Re-enacts one stored witness over `base` — the plan its recipe's
/// `entry` names, which the caller resolves — and pins the re-recorded
/// trace against the store through [`replay_plan`]. A run without a
/// usable recipe, or naming a strategy `base` does not generate, is a
/// typed error, never a panic and never a pass.
pub fn replay_witness<F: GameFamily>(
    base: &Plan<F>,
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
            cell: ("4.1".to_string(), "thm4.1-n7-k2-t0".to_string()),
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
        assert_eq!(parsed(r.meta()), Ok(r));
    }

    #[test]
    fn a_witness_renders_the_keys_it_always_had() {
        // The key list every frontier witness store was written with:
        // FRONTIER-WITNESS.mtrc depends on this order.
        let meta = recipe().meta();
        let keys: Vec<&str> = meta.iter().map(|kv| kv.0.as_str()).collect();
        let want = [
            "entry",
            "theorem",
            "cell",
            "strategy",
            "coalition",
            "deadlock",
        ];
        assert_eq!(keys, want);
        assert_eq!(meta[0].1, "frontier-cell");
        assert_eq!(meta[4].1, "0,1");
    }

    #[test]
    fn a_header_without_a_recipe_is_a_typed_error() {
        let no_recipe = |key| Err(ReplayError::NoRecipe { key });
        assert_eq!(parsed(Vec::new()), no_recipe("entry"));
        // What a `StoreSink`-recorded service session looks like.
        let service = vec![("entry".to_string(), "svc-session".to_string())];
        assert_eq!(parsed(service), no_recipe("entry"));
        // Any other entry is refused even with every other key present,
        // and a frontier entry needs its cell.
        let mut other = recipe().meta();
        other[0].1 = "svc-session".to_string();
        assert_eq!(parsed(other), no_recipe("entry"));
        let mut cell_less = recipe().meta();
        cell_less.retain(|kv| kv.0 != "cell");
        assert_eq!(parsed(cell_less), no_recipe("cell"));
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
