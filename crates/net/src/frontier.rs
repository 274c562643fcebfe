//! The frontier atlas over the sharded plane: every cell's conformance
//! sweep leased to the PR 9 coordinator/worker machinery instead of the
//! local thread fan-out.
//!
//! Cells are heterogeneous — each carries its own `(n, k, t)`, plan kind
//! and sweep configuration — so the plane is engaged *per cell*: the
//! coordinator/worker pool is stood up for a cell's sweep, drained, and
//! torn down before the next cell starts. Classification goes through the
//! same [`mediator_core::frontier::cell_result`] fold as the local runner,
//! and the sharded verdicts are bit-identical (the `ShardedSweep`
//! guarantee), so the rendered `FRONTIER.json` must match the local
//! artifact **byte for byte** — pinned by `tests/frontier_parity.rs` on
//! both transports.

use mediator_core::frontier::{
    cell_result, cell_skipped, prepare_cell, CellExperiment, FrontierAtlas, FrontierSpec,
};

use crate::shard::{ShardConfig, ShardLog, ShardedSweep};
use crate::tamper::TransportKind;

/// Aggregate log of a sharded atlas run: one [`ShardLog`] per executed
/// cell, keyed by the cell's stable identifier.
#[derive(Debug, Default)]
pub struct FrontierShardLog {
    /// `(cell key, shard log)` for every cell whose sweep went over the
    /// plane (skipped cells contribute nothing).
    pub cells: Vec<(String, ShardLog)>,
}

impl FrontierShardLog {
    /// Total absorbed failures across all cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().map(|(_, l)| l.failures.len()).sum()
    }

    /// Total sweep units leased across all cells.
    pub fn units(&self) -> usize {
        self.cells.iter().map(|(_, l)| l.units).sum()
    }

    /// How many violated cells had their witness re-enacted by a worker.
    pub fn witnesses_reenacted(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, l)| l.witness_reenacted)
            .count()
    }
}

/// Runs the whole grid with every cell's sweep sharded over `workers`
/// in-process workers on the chosen transport. The returned atlas must be
/// byte-identical (via `to_json`) to [`mediator_core::frontier::run_frontier_local`]
/// on the same spec.
pub fn run_frontier_sharded(
    spec: &FrontierSpec,
    workers: usize,
    transport: TransportKind,
    cfg: &ShardConfig,
) -> (FrontierAtlas, FrontierShardLog) {
    let mut log = FrontierShardLog::default();
    let results = spec
        .cells()
        .iter()
        .map(|cell| {
            let prepared = prepare_cell(cell, spec);
            match prepared.experiment {
                CellExperiment::CheapTalk {
                    plan,
                    label,
                    game,
                    types,
                    conf,
                } => {
                    let (report, cell_log) =
                        conf.sharded(&plan, &game, &types, workers, transport, cfg);
                    log.cells.push((prepared.cell.key(), cell_log));
                    cell_result(prepared.cell, prepared.evidence, label, &report)
                }
                CellExperiment::Companion {
                    plan,
                    game,
                    types,
                    conf,
                } => {
                    let (report, cell_log) =
                        conf.sharded(&plan, &game, &types, workers, transport, cfg);
                    log.cells.push((prepared.cell.key(), cell_log));
                    cell_result(prepared.cell, prepared.evidence, "companion", &report)
                }
                CellExperiment::Undecidable { reason } => {
                    cell_skipped(prepared.cell, prepared.evidence, reason)
                }
            }
        })
        .collect();
    (
        FrontierAtlas {
            spec: spec.clone(),
            results,
        },
        log,
    )
}
