//! Allocation accounting for the per-proposal hot path.
//!
//! This integration test binary installs a counting global allocator and
//! asserts that the steady-state proposal loop — gather neighbour counts,
//! evaluate the move, apply it — performs **zero** heap allocations once the
//! per-worker arena has warmed up: once for a hand-written step, once for
//! the production [`mh_step`].
//!
//! The counter is per thread: integration tests in a binary run on
//! multiple threads, and a sibling test's allocations must not bleed into
//! another test's count.

use hsbp_blockmodel::{
    evaluate_move_with, mh_step, propose::accept_move, propose_block, Blockmodel, NeighborCounts,
    ProposalArena,
};
use hsbp_collections::SplitMix64;
use hsbp_generator::{generate, DcsbmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapped with a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn hot_path() {
    let generated = generate(DcsbmConfig {
        num_vertices: 800,
        num_communities: 12,
        target_num_edges: 8_000,
        seed: 42,
        ..Default::default()
    });
    let graph = &generated.graph;
    let mut bm = Blockmodel::from_assignment(graph, generated.ground_truth.clone(), 12);

    let mut arena = ProposalArena::default();
    let n = graph.num_vertices() as u32;

    // One full pass to warm the arena, the blockmodel's own rows and the
    // lazily built `ln` table.
    let proposal = |bm: &mut Blockmodel, arena: &mut ProposalArena, sweep: u64, v: u32| {
        let mut rng = SplitMix64::for_item(9, sweep, u64::from(v));
        let from = bm.block_of(v);
        let to = propose_block(graph, bm, bm.assignment(), v, &mut rng);
        if to == from {
            return;
        }
        NeighborCounts::gather_into(
            graph,
            bm.assignment(),
            v,
            &mut arena.scratch,
            &mut arena.counts,
        );
        let eval = evaluate_move_with(bm, from, to, &arena.counts, &mut arena.eval);
        if accept_move(&eval, 3.0, &mut rng) {
            bm.apply_move(v, from, to, &arena.counts);
        }
    };
    for v in 0..n {
        proposal(&mut bm, &mut arena, 0, v);
    }

    // Steady state: count allocations over full sweeps.
    let sweeps = 5u64;
    let before = allocations();
    for sweep in 1..=sweeps {
        for v in 0..n {
            proposal(&mut bm, &mut arena, sweep, v);
        }
    }
    let delta = allocations() - before;
    let per_proposal = delta as f64 / (sweeps * u64::from(n)) as f64;
    eprintln!(
        "hot path: {delta} allocations over {} proposals ({per_proposal:.3} per proposal)",
        sweeps * u64::from(n)
    );
    assert_eq!(
        delta, 0,
        "steady-state proposal loop must not allocate ({per_proposal:.3} allocations/proposal)"
    );
}

#[test]
fn production_mh_step_allocates_nothing() {
    let generated = generate(DcsbmConfig {
        num_vertices: 800,
        num_communities: 12,
        target_num_edges: 8_000,
        seed: 42,
        ..Default::default()
    });
    let graph = &generated.graph;
    let mut bm = Blockmodel::from_assignment(graph, generated.ground_truth.clone(), 12);
    let mut arena = ProposalArena::default();
    let n = graph.num_vertices() as u32;
    let sweep = |bm: &mut Blockmodel, arena: &mut ProposalArena, sweep: u64| {
        let mut applied = 0u64;
        for v in 0..n {
            let mut rng = SplitMix64::for_item(9, sweep, u64::from(v));
            applied += u64::from(mh_step(graph, bm, v, 3.0, &mut rng, arena).is_some());
        }
        applied
    };
    // Warm the arena, the model's rows and the `ln` table.
    sweep(&mut bm, &mut arena, 0);

    let sweeps = 5u64;
    let before = allocations();
    let applied: u64 = (1..=sweeps).map(|s| sweep(&mut bm, &mut arena, s)).sum();
    let delta = allocations() - before;
    let proposals = sweeps * u64::from(n);
    assert!(
        applied > 0,
        "no move applied: the apply path went unmeasured"
    );
    assert_eq!(
        delta, 0,
        "steady-state mh_step must not allocate ({delta} allocations over {proposals} proposals, {applied} applied)"
    );
}
