//! Execution strategy: a thread-local scope that pins how the machines
//! created inside it execute, without changing any result, and the
//! fan-out the sweeps share.
//!
//! [`with_sequential`] serves the determinism auditor: it forces machines
//! created in its scope to run their processors' closures on the calling
//! thread, so a pooled vs. sequential digest comparison can be driven from
//! the outside. The exchange is one sequential sweep on every machine, so
//! the sequential leg differs from the pooled one in the closures only.
//!
//! [`map_ordered`] is the fan-out the sweep drivers and the figures share:
//! it runs independent work units side by side on the rayon shim's pool,
//! one whole unit per task. That scope, and every observer scope, is
//! thread-local, so a machine built on another thread would escape it;
//! `map_ordered` therefore runs its plain loop on the calling thread
//! whenever one of them is active.

use std::cell::Cell;

use crate::probe;

thread_local! {
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `body` with machines forced to sequential processor execution
/// (`parallel = false` at construction). Used by the determinism auditor
/// to compare a rayon run against a sequential run of the same seed.
pub fn with_sequential<R>(body: impl FnOnce() -> R) -> R {
    let prev = FORCE_SEQUENTIAL.with(|f| f.replace(true));
    let _guard = SeqGuard { prev };
    body()
}

/// Applies `f` to every item and returns the results in input order;
/// `f(i, item)` receives the item's input index.
///
/// The items run side by side on the worker pool, one task each. Work
/// units usually build [`crate::Machine`]s, and the pool counts every
/// task of a fan-out as nested (see `rayon::in_pool_worker`), so those
/// machines run their closures inline on the task's thread: for many
/// small simulations the cores are better spent across units than inside
/// each superstep. Results do not depend on this: the simulator is
/// bit-identical across execution strategies, so each result depends only
/// on its unit's inputs, never on the thread that ran it.
///
/// Runs the plain sequential loop instead when the calling thread has an
/// observer scope ([`crate::with_probe`], [`crate::extract_plans`]) or
/// [`with_sequential`] active, so every machine a unit builds stays
/// inside those scopes. The pool itself runs the loop inline on a
/// single-thread pool, inside another fan-out, and for fewer than two
/// items.
pub fn map_ordered<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if probe::scoped_here() || sequential_forced() {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|t| (Some(t), None)).collect();
    rayon::scoped_join(&mut slots, |i, slot| {
        let item = slot.0.take().expect("each slot visited exactly once");
        slot.1 = Some(f(i, item));
    });
    slots
        .into_iter()
        .map(|(_, r)| r.expect("scoped_join visits every slot"))
        .collect()
}

pub(crate) fn sequential_forced() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get)
}

struct SeqGuard {
    prev: bool,
}

impl Drop for SeqGuard {
    fn drop(&mut self) {
        FORCE_SEQUENTIAL.with(|f| f.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::IdealNetwork;
    use crate::Machine;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            9,
        )
    }

    #[test]
    fn sequential_scope_forces_parallel_off() {
        // Indirect observation: results must match the parallel run (the
        // machine exposes no `parallel` getter), and the flag resets.
        let t1 = with_sequential(|| {
            let mut m = machine(8);
            m.superstep(|ctx| ctx.charge(ctx.pid() as f64));
            m.time()
        });
        assert!(!sequential_forced(), "flag restored");
        let mut m = machine(8);
        m.superstep(|ctx| ctx.charge(ctx.pid() as f64));
        assert_eq!(t1, m.time());
    }

    #[test]
    fn results_come_back_in_input_order() {
        let out = map_ordered((0..100usize).collect(), |i, x| {
            assert_eq!(i, x, "index matches the item's input position");
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_ordered(vec!["a", "b", "c"], |_, s| {
            calls.fetch_add(1, Ordering::SeqCst);
            s.to_uppercase()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(out, vec!["A", "B", "C"]);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = map_ordered(Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(map_ordered(vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn nested_sweeps_do_not_deadlock() {
        let out = map_ordered((0..8usize).collect(), |_, x| {
            map_ordered((0..4usize).collect(), move |_, y| x * 10 + y)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[1], 10 + 11 + 12 + 13);
    }

    #[test]
    fn scoped_threads_keep_their_units() {
        let me = std::thread::current().id();
        let threads = || map_ordered(vec![(); 8], |_, ()| std::thread::current().id());
        for ids in [
            with_sequential(threads),
            crate::with_probe(|_| unreachable!("no machine is built"), threads),
        ] {
            assert!(
                ids.iter().all(|&t| t == me),
                "a unit left the scope's thread"
            );
        }
    }
}
