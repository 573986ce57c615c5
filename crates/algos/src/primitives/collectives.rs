//! Standalone collective operations on a simulated machine.
//!
//! These are the BSP communication primitives of the paper's reference
//! \[16\] (Juurlink & Wijshoff, "Communication Primitives for BSP
//! Computers"), implemented over a simple word-vector state. The
//! algorithms embed specialized copies of these patterns; the standalone
//! versions exist so the primitives can be measured and tested in
//! isolation (and they power the `model_shootout` example).

use pcm_core::units::tag_u32;
use pcm_machines::Platform;
use pcm_sim::{Machine, Message};

use super::plan::{chunk, staggered};
use crate::regions;

/// State for the standalone collectives: each processor holds a vector of
/// words.
#[derive(Clone, Debug, Default)]
pub struct CollState {
    /// Local data.
    pub data: Vec<u32>,
    /// Result buffer.
    pub out: Vec<u32>,
}

/// Builds a machine whose processor `i` holds `data[i]`.
pub fn machine_with(platform: &Platform, data: Vec<Vec<u32>>, seed: u64) -> Machine<CollState> {
    let states = data
        .into_iter()
        .map(|d| CollState {
            data: d,
            out: Vec::new(),
        })
        .collect();
    platform.machine(states, seed)
}

/// Two-phase broadcast of `root`'s vector to every processor (scatter +
/// all-gather), the structure used for the APSP row/column broadcasts:
/// cost `2·(g·M + L)` instead of the naive `g·M·P + L`.
pub fn broadcast(machine: &mut Machine<CollState>, root: usize) {
    let p = machine.nprocs();
    // Phase 1: root scatters pieces.
    machine.superstep(move |ctx| {
        if ctx.pid() == root {
            ctx.touch_read(regions::COLL_DATA);
            let data = ctx.state.data.clone();
            let m = data.len();
            ctx.touch_write(regions::COLL_OUT);
            for t in staggered(root, p) {
                let piece = &data[chunk(m, p, t)];
                if t == root {
                    ctx.state.out = piece.to_vec();
                } else if !piece.is_empty() {
                    ctx.send_words_u32(t, piece);
                }
            }
        }
    });
    // Phase 2: everyone re-broadcasts its piece (tag = piece index).
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let piece: Vec<u32> = if pid == root {
            ctx.touch_read(regions::COLL_OUT);
            std::mem::take(&mut ctx.state.out)
        } else {
            ctx.msgs().iter().flat_map(Message::u32s).collect()
        };
        for t in staggered(pid, p) {
            if t != pid && !piece.is_empty() {
                ctx.send_words_u32_tagged(t, tag_u32(pid), &piece);
            }
        }
        ctx.touch_write(regions::COLL_OUT);
        ctx.state.out = piece;
    });
    // Phase 3: assemble.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        // Determine the total length from all pieces.
        let mut pieces: Vec<(usize, Vec<u32>)> = ctx
            .msgs()
            .iter()
            .map(|m| (m.tag as usize, m.as_u32s()))
            .collect();
        ctx.touch_modify(regions::COLL_OUT);
        pieces.push((pid, ctx.state.out.clone()));
        pieces.sort_by_key(|(idx, _)| *idx);
        ctx.state.out = pieces.into_iter().flat_map(|(_, v)| v).collect();
    });
}

/// All-gather: every processor ends with the concatenation of all
/// processors' vectors in pid order.
pub fn all_gather(machine: &mut Machine<CollState>) {
    let p = machine.nprocs();
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::COLL_DATA);
        let data = ctx.state.data.clone();
        for t in staggered(pid, p) {
            if t != pid && !data.is_empty() {
                ctx.send_words_u32_tagged(t, tag_u32(pid), &data);
            }
        }
    });
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let mut pieces: Vec<(usize, Vec<u32>)> =
            ctx.msgs().iter().map(|m| (m.src, m.as_u32s())).collect();
        ctx.touch_read(regions::COLL_DATA);
        pieces.push((pid, ctx.state.data.clone()));
        pieces.sort_by_key(|(idx, _)| *idx);
        ctx.touch_write(regions::COLL_OUT);
        ctx.state.out = pieces.into_iter().flat_map(|(_, v)| v).collect();
    });
}

/// Multi-scan (the paper's `T_scan = 2·(g·P + L)` primitive): processor
/// `i` holds a vector `v_i` of length `P`; afterwards `out[j]` on
/// processor `i` is `sum_{i' < i} v_{i'}[j]` — the exclusive prefix sum
/// across processors, per component. This is what sample sort uses to
/// compute receive addresses.
pub fn multi_scan(machine: &mut Machine<CollState>) {
    let p = machine.nprocs();
    // Phase 1: transpose — component j goes to processor j.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::COLL_DATA);
        let data = ctx.state.data.clone();
        assert_eq!(data.len(), p, "multi_scan needs a P-vector per processor");
        for j in staggered(pid, p) {
            if j != pid {
                ctx.send_word_u32(j, data[j]);
            }
        }
    });
    // Phase 2: prefix-sum locally, send each source its prefix.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let mut comps = vec![0u32; p];
        ctx.touch_read(regions::COLL_DATA);
        comps[pid] = ctx.state.data[pid];
        for msg in ctx.msgs() {
            comps[msg.src] = msg.word_u32();
        }
        let mut acc = 0u32;
        let mut prefix = vec![0u32; p];
        for i in 0..p {
            prefix[i] = acc;
            acc += comps[i];
        }
        for i in staggered(pid, p) {
            if i != pid {
                ctx.send_word_u32(i, prefix[i]);
            }
        }
        ctx.touch_write(regions::COLL_OUT);
        ctx.state.out = vec![0; p];
        ctx.state.out[pid] = prefix[pid];
    });
    // Phase 3: collect.
    machine.superstep(move |ctx| {
        let incoming: Vec<(usize, u32)> =
            ctx.msgs().iter().map(|m| (m.src, m.word_u32())).collect();
        ctx.touch_modify(regions::COLL_OUT);
        for (src, v) in incoming {
            ctx.state.out[src] = v;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plat() -> Platform {
        Platform::cm5_with(8)
    }

    #[test]
    fn broadcast_delivers_roots_vector() {
        let p = 8;
        let data: Vec<Vec<u32>> = (0..p)
            .map(|i| {
                if i == 3 {
                    (100..116).collect()
                } else {
                    vec![0; 16]
                }
            })
            .collect();
        let mut m = machine_with(&plat(), data, 1);
        broadcast(&mut m, 3);
        for st in m.states() {
            assert_eq!(st.out, (100..116).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn broadcast_with_short_vectors() {
        // Fewer items than processors: some pieces are empty.
        let p = 8;
        let data: Vec<Vec<u32>> = (0..p)
            .map(|i| if i == 0 { vec![7, 8, 9] } else { vec![] })
            .collect();
        let mut m = machine_with(&plat(), data, 2);
        broadcast(&mut m, 0);
        for st in m.states() {
            assert_eq!(st.out, vec![7, 8, 9]);
        }
    }

    #[test]
    fn all_gather_concatenates_in_pid_order() {
        let p = 8;
        let data: Vec<Vec<u32>> = (0..p as u32).map(|i| vec![i * 2, i * 2 + 1]).collect();
        let mut m = machine_with(&plat(), data, 3);
        all_gather(&mut m);
        let expect: Vec<u32> = (0..16).collect();
        for st in m.states() {
            assert_eq!(st.out, expect);
        }
    }

    #[test]
    fn multi_scan_computes_exclusive_prefixes() {
        let p = 8usize;
        // v_i[j] = i + j
        let data: Vec<Vec<u32>> = (0..p)
            .map(|i| (0..p).map(|j| tag_u32(i + j)).collect())
            .collect();
        let mut m = machine_with(&plat(), data, 4);
        multi_scan(&mut m);
        for (i, st) in m.states().iter().enumerate() {
            for j in 0..p {
                let expect: u32 = (0..i).map(|ip| tag_u32(ip + j)).sum();
                assert_eq!(st.out[j], expect, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn broadcast_cost_is_two_phase_not_linear_in_p() {
        // On the CM-5 the two-phase broadcast of M words costs about
        // 2·(g·M + L); a naive root-sends-all would cost g·M·(P-1).
        let p = 64;
        let m_words = 640usize;
        let data: Vec<Vec<u32>> = (0..p)
            .map(|i| if i == 0 { vec![1; m_words] } else { vec![] })
            .collect();
        let mut m = machine_with(&Platform::cm5(), data, 5);
        broadcast(&mut m, 0);
        let t = m.time().as_micros();
        let naive = 9.1 * (m_words * (p - 1)) as f64;
        assert!(t < naive / 4.0, "two-phase broadcast {t} vs naive {naive}");
    }
}
