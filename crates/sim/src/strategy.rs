//! Execution-strategy overrides: thread-local scopes that pin how the
//! machines created inside them execute, without changing any result.
//!
//! [`with_sequential`] serves the determinism auditor: it forces machines
//! created in its scope to run processors sequentially, so a rayon-on vs.
//! rayon-off digest comparison can be driven from the outside. It also
//! covers the exchange phase: a sequential machine always takes the
//! single-threaded fused exchange, never the sharded engine, so the
//! auditor's sequential leg is the oracle the other legs are held to.
//!
//! [`with_exchange_shards`] is the matching override for the sharded
//! exchange engine: machines created in its scope use exactly the given
//! shard count (clamped to `[1, min(p, MAX_SHARDS)]`), regardless of the
//! pool width or processor count. The determinism auditor uses it to pin
//! a forced-sharded leg against the sequential one; tests use it to
//! exercise the lane engine on machines too small to shard by default.
//! The override composes with every observer scope ([`crate::probe`]), so
//! the analyzers run on the sharded engine too.

use std::cell::Cell;

thread_local! {
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
    static FORCE_SHARDS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `body` with machines forced to sequential processor execution
/// (`parallel = false` at construction). Used by the determinism auditor
/// to compare a rayon run against a sequential run of the same seed.
pub fn with_sequential<R>(body: impl FnOnce() -> R) -> R {
    let prev = FORCE_SEQUENTIAL.with(|f| f.replace(true));
    let _guard = SeqGuard { prev };
    body()
}

/// Runs `body` with machines forced to use exactly `shards` exchange
/// shards (clamped at construction to `[1, min(p, MAX_SHARDS)]`). The
/// determinism auditor uses this to pin a forced-sharded leg against the
/// sequential one even on machines too small to shard by default.
/// Nests; the previous override is restored on exit (also on panic).
pub fn with_exchange_shards<R>(shards: usize, body: impl FnOnce() -> R) -> R {
    let prev = FORCE_SHARDS.with(|f| f.replace(Some(shards)));
    let _guard = ShardGuard { prev };
    body()
}

pub(crate) fn sequential_forced() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get)
}

pub(crate) fn forced_shards() -> Option<usize> {
    FORCE_SHARDS.with(Cell::get)
}

struct SeqGuard {
    prev: bool,
}

impl Drop for SeqGuard {
    fn drop(&mut self) {
        FORCE_SEQUENTIAL.with(|f| f.set(self.prev));
    }
}

struct ShardGuard {
    prev: Option<usize>,
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        FORCE_SHARDS.with(|f| f.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::IdealNetwork;
    use crate::Machine;
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
    fn shard_scope_nests_and_restores() {
        with_exchange_shards(3, || {
            assert_eq!(machine(8).exchange_shards(), 3);
            with_exchange_shards(5, || assert_eq!(forced_shards(), Some(5)));
            assert_eq!(forced_shards(), Some(3));
        });
        assert_eq!(forced_shards(), None);
    }
}
