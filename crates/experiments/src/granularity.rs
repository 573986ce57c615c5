//! Section 8 conclusions: message granularity.
//!
//! "On these architectures, a satisfactory performance can be obtained by
//! using fixed size short messages, but larger than one computational
//! word ... For example, with 16-byte messages, the difference decreases
//! to 1.37 on the MasPar and to 2.1 on the CM-5."
//!
//! The experiment sorts with bitonic sort under increasing packet sizes
//! and reports the per-key cost relative to the MP-BPRAM (whole-list
//! block) version — the "difference" of the quote.

use pcm_algos::sort::bitonic::ExchangeMode;
use pcm_core::Table;
use pcm_machines::Platform;

use crate::report::{Output, Scale};
use crate::runs::{run_verified, RunKey};

/// Per-key times of bitonic runs, in µs, in input order.
fn per_key(keys: &[RunKey]) -> Vec<f64> {
    let runs = run_verified(keys);
    keys.iter()
        .zip(runs)
        .map(|(k, r)| r.time.as_micros() / k.n as f64)
        .collect()
}

/// Runs the granularity study on the MasPar and the CM-5.
pub fn run(scale: Scale, seed: u64) -> Output {
    let m = match scale {
        Scale::Full => 2048,
        Scale::Quick => 512,
    };
    let mut t = Table::new(
        "Sec. 8",
        format!(
            "Bitonic sort with fixed-size packets, {m} keys/processor: per-key cost \
             relative to the MP-BPRAM block version (paper: 16-byte messages give \
             1.37 on the MasPar, 2.1 on the CM-5)"
        ),
        vec![
            "Architecture".into(),
            "1 word [µs/key]".into(),
            "16 B [µs/key]".into(),
            "64 B [µs/key]".into(),
            "blocks [µs/key]".into(),
            "ratio @16 B".into(),
        ],
    );
    let plats = [Platform::maspar(), Platform::cm5()];
    // One word, 16 B and 64 B packets, then the whole-list block.
    let keys: Vec<RunKey> = plats
        .iter()
        .flat_map(|&plat| {
            let packets = |bytes| ExchangeMode::Packets { bytes };
            [
                packets(plat.word()),
                packets(16),
                packets(64),
                ExchangeMode::Block,
            ]
            .map(|mode| RunKey::bitonic(mode, plat, m, seed))
        })
        .collect();
    let times = per_key(&keys);
    for (plat, row) in plats.iter().zip(times.chunks_exact(4)) {
        let &[words, p16, p64, blocks] = row else {
            unreachable!("four modes per platform")
        };
        t.push_row(vec![
            plat.name().to_string(),
            format!("{words:.1}"),
            format!("{p16:.1}"),
            format!("{p64:.1}"),
            format!("{blocks:.1}"),
            format!("{:.2}", p16 / blocks),
        ]);
    }
    Output::Tab(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_ratios_match_the_papers_conclusions() {
        let Output::Tab(t) = run(Scale::Quick, 3) else {
            panic!()
        };
        let ratio =
            |machine: &str| -> f64 { t.cell(machine, "ratio @16 B").unwrap().parse().unwrap() };
        // "with 16-byte messages, the difference decreases to 1.37 on the
        // MasPar and to 2.1 on the CM-5" — the comparison is communication
        // cost; the whole-sort ratio dilutes it slightly with local work.
        let maspar = ratio("MasPar");
        assert!((maspar - 1.37).abs() < 0.45, "MasPar ratio = {maspar}");
        let cm5 = ratio("CM-5");
        assert!((cm5 - 2.1).abs() < 0.7, "CM-5 ratio = {cm5}");
    }

    #[test]
    fn bigger_packets_are_monotonically_cheaper() {
        let keys = [8, 32, 128]
            .map(|bytes| RunKey::bitonic(ExchangeMode::Packets { bytes }, Platform::cm5(), 256, 1));
        let &[a, b, c] = &per_key(&keys)[..] else {
            unreachable!("three runs")
        };
        assert!(a > b && b > c, "{a} > {b} > {c} expected");
    }
}
