//! Integration tests for the extension systems: LU decomposition, parallel
//! radix sort, the message-granularity study and the trace accountant.

use pcm::algos::lu::{self, LuVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::algos::sort::parallel_radix::{self, RadixVariant};
use pcm::experiments::{granularity, model_fit, Output, Scale};
use pcm::models::account_run;
use pcm::Platform;

const SEED: u64 = 1996;

#[test]
fn lu_factorizes_on_every_machine() {
    for plat in [Platform::maspar(), Platform::gcel(), Platform::cm5()] {
        let r = lu::run(&plat, 64, LuVariant::Blocks, SEED);
        assert!(r.verified, "{} LU failed", plat.name());
    }
}

#[test]
fn lu_blocks_beat_words_on_the_gcel() {
    // The GCel's bulk-transfer gain applies to LU just as it does to the
    // paper's three problems.
    let plat = Platform::gcel();
    let words = lu::run(&plat, 64, LuVariant::Words, SEED);
    let blocks = lu::run(&plat, 64, LuVariant::Blocks, SEED);
    assert!(words.verified && blocks.verified);
    assert!(blocks.time < words.time);
}

#[test]
fn parallel_radix_is_a_competitive_third_sorter() {
    // Radix sort is O(M) per processor against bitonic's O(M·lg²P) merge
    // phases, but with larger constants: the crossover sits between
    // M = 2048 and M = 4096 keys/processor on the CM-5. Assert both sides
    // of it: competitive (within 15%) at 2048, strictly faster at 4096.
    let plat = Platform::cm5();
    let radix = parallel_radix::run(&plat, 2048, RadixVariant::Blocks, SEED);
    let bit = bitonic::run(&plat, 2048, ExchangeMode::Block, SEED);
    assert!(radix.verified && bit.verified);
    assert!(
        radix.time / bit.time < 1.15,
        "radix {} should be within 15% of bitonic {} at M = 2048 on the CM-5",
        radix.time,
        bit.time
    );
    let radix = parallel_radix::run(&plat, 4096, RadixVariant::Blocks, SEED);
    let bit = bitonic::run(&plat, 4096, ExchangeMode::Block, SEED);
    assert!(radix.verified && bit.verified);
    assert!(
        radix.time < bit.time,
        "radix {} should beat bitonic {} at M = 4096 on the CM-5",
        radix.time,
        bit.time
    );
}

#[test]
fn granularity_study_matches_section8() {
    let Output::Tab(t) = granularity::run(Scale::Quick, SEED) else {
        panic!("expected a table")
    };
    let ratio = |machine: &str| -> f64 { t.cell(machine, "ratio @16 B").unwrap().parse().unwrap() };
    // 16-byte packets land between single words and full blocks, near the
    // paper's quoted 1.37 (MasPar) and 2.1 (CM-5).
    assert!((ratio("MasPar") - 1.37).abs() < 0.45);
    assert!((ratio("CM-5") - 2.1).abs() < 0.7);
}

#[test]
fn packet_sizes_interpolate_between_words_and_blocks() {
    for plat in [Platform::maspar(), Platform::cm5()] {
        let m = 256;
        let w = plat.word();
        let words = bitonic::run(&plat, m, ExchangeMode::Packets { bytes: w }, SEED);
        let p16 = bitonic::run(&plat, m, ExchangeMode::Packets { bytes: 16 }, SEED);
        let blocks = bitonic::run(&plat, m, ExchangeMode::Block, SEED);
        assert!(words.verified && p16.verified && blocks.verified);
        assert!(
            blocks.time < p16.time && p16.time < words.time,
            "{}: {} < {} < {} expected",
            plat.name(),
            blocks.time,
            p16.time,
            words.time
        );
    }
}

#[test]
fn single_word_packets_equal_word_messages() {
    // A packet of exactly one machine word is a word message.
    let plat = Platform::cm5();
    let m = 128;
    let words = bitonic::run(&plat, m, ExchangeMode::Words, SEED);
    let packets = bitonic::run(&plat, m, ExchangeMode::Packets { bytes: 8 }, SEED);
    let ratio = words.time / packets.time;
    assert!((ratio - 1.0).abs() < 0.05, "ratio = {ratio}");
}

#[test]
fn model_fit_table_identifies_the_block_model() {
    let Output::Tab(t) = model_fit::run(Scale::Quick, SEED) else {
        panic!("expected a table")
    };
    for machine in ["MasPar", "GCel", "CM-5"] {
        let best = t.cell(&format!("{machine} blocks"), "best").unwrap();
        assert_eq!(best, "MP-BPRAM", "{machine} blocks");
    }
}

#[test]
fn accountant_matches_the_closed_form_for_block_bitonic() {
    // Replaying the traces of the block bitonic under the MP-BPRAM rules
    // should land near the closed-form prediction of Section 4.2.
    use pcm::algos::sort::bitonic::{merge_phases, BitonicList, SortState};
    use pcm::algos::sort::radix::radix_sort;

    let plat = Platform::gcel();
    let params = plat.model_params();
    let m = 512;
    let p = plat.p();
    let mut rng = pcm::core::rng::seeded(SEED);
    let keys = pcm::core::rng::random_keys(p * m, &mut rng);
    let states: Vec<SortState> = (0..p)
        .map(|i| SortState {
            keys: keys[i * m..(i + 1) * m].to_vec(),
            stash: Vec::new(),
        })
        .collect();
    let mut machine = plat.machine(states, SEED);
    machine.superstep(|ctx| {
        radix_sort(ctx.state.list_mut());
        ctx.charge_radix_sort(m, 32, 8);
    });
    merge_phases(&mut machine, ExchangeMode::Block);

    let acc = account_run(&params, machine.traces());
    let accounted = acc.bpram + acc.compute;
    let closed_form = pcm::models::predict::bitonic::bpram(&params, m);
    let err = accounted.relative_error(closed_form);
    assert!(
        err < 0.1,
        "accounted {accounted} vs closed form {closed_form}"
    );
}

#[test]
fn bitonic_merge_phases_sort_adversarial_keys() {
    // Compare-split must hold up when ties dominate or the input is
    // already ordered: all-equal, presorted, reverse-sorted and two-key
    // lists, on every machine, in word, block and resynchronized modes.
    use pcm::algos::sort::bitonic::{merge_phases, SortState};
    use pcm::algos::verify::check_sorted_permutation;

    let (p, m) = (16, 48);
    let n = u32::try_from(p * m).unwrap();
    let inputs: [(&str, Vec<u32>); 4] = [
        ("all-equal", vec![42; p * m]),
        ("presorted", (0..n).collect()),
        ("reverse-sorted", (0..n).rev().collect()),
        (
            "two-key",
            (0..n).map(|i| if i % 3 == 0 { 9 } else { 2 }).collect(),
        ),
    ];
    let modes = [
        ExchangeMode::Words,
        ExchangeMode::Block,
        ExchangeMode::WordsResync { interval: 16 },
    ];
    for plat in [
        Platform::maspar_with(p),
        Platform::gcel_with(p),
        Platform::cm5_with(p),
    ] {
        for (name, keys) in &inputs {
            for mode in modes {
                let states: Vec<SortState> = keys
                    .chunks(m)
                    .map(|c| {
                        let mut keys = c.to_vec();
                        keys.sort_unstable();
                        SortState {
                            keys,
                            stash: Vec::new(),
                        }
                    })
                    .collect();
                let mut machine = plat.machine(states, SEED);
                merge_phases(&mut machine, mode);
                let sorted: Vec<u32> = machine
                    .states()
                    .iter()
                    .flat_map(|s| s.keys.clone())
                    .collect();
                assert!(
                    check_sorted_permutation(keys, &sorted),
                    "{} {name} keys, {mode:?}: not a sorted permutation",
                    plat.name()
                );
            }
        }
    }
}
