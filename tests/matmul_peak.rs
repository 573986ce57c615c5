//! Peak live heap of the matmul runs against their footprint estimate.
//!
//! `pcm_experiments::runs` keeps a run as a lone machine when its
//! estimated footprint (`RunKey::footprint`) could not share the memory
//! budget with a second run its size. The estimate is only a gate if no
//! run holds more than it: this binary measures the most heap bytes each
//! run keeps live at once (its inputs, states, messages and check) with a
//! counting allocator, and fails if the footprint falls below that.
//!
//! One test, so that no other test's allocations land in the counter.

use pcm::algos::matmul::MatmulVariant;
use pcm::experiments::runs::{Algo, RunKey};
use pcm_machines::Platform;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// The most bytes the run keeps live at once beyond what was live before.
fn peak_live_bytes(key: &RunKey) -> usize {
    let base = alloc_counter::reset_peak();
    assert!(key.run().verified, "{key:?} failed its check");
    alloc_counter::peak_live_bytes() - base
}

#[test]
fn matmul_peaks_stay_within_their_footprint() {
    let stag = Algo::Matmul(MatmulVariant::BspStaggered);
    let keys = [
        RunKey::new(stag, Platform::maspar(), 300, 1),
        RunKey::new(stag, Platform::cm5(), 512, 1),
        RunKey::new(Algo::CmsslMatmul, Platform::cm5(), 512, 1),
        RunKey::new(Algo::MplMatmul, Platform::maspar(), 400, 1),
    ];
    for key in keys {
        let peak = peak_live_bytes(&key);
        let n2 = 8 * key.n * key.n;
        eprintln!(
            "{:?} on {} at N = {}: peak {:.1} MB, footprint {:.1} MB",
            key.algo,
            key.platform.name(),
            key.n,
            peak as f64 / 1e6,
            key.footprint() as f64 / 1e6,
        );
        // The run holds at least its two distributed operands and the
        // gathered product, so the counter sees the run.
        assert!(
            peak >= 3 * n2,
            "{key:?}: {peak} bytes is less than A, B and C"
        );
        assert!(
            key.footprint() >= peak,
            "{key:?}: footprint {} bytes is below the measured peak of {peak}",
            key.footprint()
        );
    }
}
