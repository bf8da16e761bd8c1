//! The serial Metropolis-Hastings sweep (Algorithm 2) — the paper's SBP
//! baseline. Each accepted move updates the blockmodel immediately, so
//! every later proposal in the same sweep sees fully fresh state; that is
//! exactly the dependency chain that makes this phase inherently serial.
//!
//! [`mh_pass`] is that serial loop, once, for every in-place sweep: SBP and
//! H-SBP's influential set (both through [`super::hybrid`]), EA-SBP's
//! workers, the exact distributed mode's shards and the serve refinement.

use crate::budget::{RunControl, VERTEX_CHECK_STRIDE};
use hsbp_blockmodel::{mh_step, Block, Blockmodel, ProposalArena};
use hsbp_collections::SplitMix64;
use hsbp_graph::{Graph, Vertex};
use std::ops::Range;

/// Serial MH over `vertices` once per sweep index in `sweeps`: one
/// [`mh_step`] per vertex, each drawing from
/// `SplitMix64::for_item(salt, sweep, v)`. `visit` receives every vertex's
/// outcome in visit order (the target block when the move was applied).
///
/// The control is checked before every `VERTEX_CHECK_STRIDE`-th visit of
/// the pass (by position, never before the first). Returns false when it
/// interrupted the pass; the model is then a consistent prefix of the
/// pass, because every move is applied immediately.
#[allow(clippy::too_many_arguments)]
pub fn mh_pass(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: impl Iterator<Item = Vertex> + Clone,
    sweeps: Range<u64>,
    beta: f64,
    salt: u64,
    ctrl: &RunControl,
    arena: &mut ProposalArena,
    mut visit: impl FnMut(Vertex, Option<Block>),
) -> bool {
    let mut position: u64 = 0;
    for sweep in sweeps {
        for v in vertices.clone() {
            if position > 0
                && position.is_multiple_of(VERTEX_CHECK_STRIDE)
                && ctrl.interrupt_cause().is_some()
            {
                return false;
            }
            position += 1;
            let mut rng = SplitMix64::for_item(salt, sweep, u64::from(v));
            visit(v, mh_step(graph, bm, v, beta, &mut rng, arena));
        }
    }
    true
}
