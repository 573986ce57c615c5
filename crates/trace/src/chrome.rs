//! Chrome trace-event JSON export (loadable in `chrome://tracing`,
//! Perfetto's legacy importer, or `ui.perfetto.dev`).
//!
//! The primary timeline is *simulated* time: each superstep renders as a
//! complete (`"ph": "X"`) compute slice followed by a comm/barrier slice,
//! with `ts`/`dur` in simulated microseconds — exactly the unit the
//! trace-event format expects. Wall-clock engine-phase nanoseconds and
//! record counts ride along in `args`, and a counter track (`"ph": "C"`)
//! plots records per superstep.

use crate::capture::MachineRun;
use pcm_core::fsio::json_escape;

/// One machine run to export, with its display name.
pub struct ChromeRun<'a> {
    /// Process name shown in the viewer (e.g. `matmul/BspStaggered @ CM-5`).
    pub name: String,
    /// The captured rows.
    pub run: &'a MachineRun,
}

/// Renders the trace-event JSON document for `runs`. Each run becomes a
/// "process" (pid = index + 1) with one superstep track.
pub fn render(runs: &[ChromeRun<'_>]) -> String {
    let mut s = String::new();
    s.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            s.push_str(",\n");
        }
        *first = false;
        s.push_str(&line);
    };
    for (i, cr) in runs.iter().enumerate() {
        let pid = i + 1;
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&cr.name)
            ),
            &mut first,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"supersteps (simulated µs)\"}}}}"
            ),
            &mut first,
        );
        let mut ts = 0.0f64;
        for row in &cr.run.rows {
            let step = row.trace.index;
            let compute = row.trace.compute.as_micros();
            let comm = row.trace.comm.as_micros();
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"name\":\"step {step} compute\",\"ts\":{ts},\"dur\":{compute},\"args\":{{\"records\":{},\"wall_ns\":{}}}}}",
                    row.records, row.phases.compute
                ),
                &mut first,
            );
            let comm_name = if row.records == 0 { "barrier" } else { "comm" };
            let wall_comm = row.phases.total() - row.phases.compute;
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"name\":\"step {step} {comm_name}\",\"ts\":{},\"dur\":{comm},\"args\":{{\"records\":{},\"path\":\"{}\",\"wall_ns\":{wall_comm}}}}}",
                    ts + compute,
                    row.records,
                    row.path.label()
                ),
                &mut first,
            );
            push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":1,\"name\":\"records\",\"ts\":{ts},\"args\":{{\"records\":{}}}}}",
                    row.records
                ),
                &mut first,
            );
            ts = row.clock.as_micros();
        }
    }
    s.push_str("\n]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{MachineRun, StepRow};
    use pcm_core::SimTime;
    use pcm_sim::{ExchangePath, PhaseNanos, SuperstepTrace};

    fn run() -> MachineRun {
        let mut rows = Vec::new();
        let mut clock = SimTime::ZERO;
        for step in 0..3u32 {
            let trace = SuperstepTrace {
                index: step as usize,
                compute: SimTime::from_micros(2.0),
                comm: SimTime::from_micros(1.5),
                ..Default::default()
            };
            clock += trace.compute + trace.comm;
            rows.push(StepRow {
                machine: 0,
                trace,
                clock,
                records: u64::from(step % 2),
                path: ExchangePath::Fused,
                phases: PhaseNanos::default(),
                memo: None,
                terms: None,
            });
        }
        MachineRun {
            p: 4,
            rows,
            dropped: 0,
        }
    }

    #[test]
    fn emits_two_slices_per_step_plus_counter() {
        let r = run();
        let doc = render(&[ChromeRun {
            name: String::from("test/run"),
            run: &r,
        }]);
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 6);
        assert_eq!(doc.matches("\"ph\":\"C\"").count(), 3);
        assert_eq!(doc.matches("\"ph\":\"M\"").count(), 2);
        assert!(doc.contains("step 0 barrier"), "0-record step is a barrier");
        assert!(doc.contains("step 1 comm"));
        assert!(doc.contains("\"traceEvents\""));
    }

    #[test]
    fn slices_tile_the_simulated_timeline() {
        let r = run();
        let doc = render(&[ChromeRun {
            name: String::from("t"),
            run: &r,
        }]);
        // Step 1's compute slice starts at the clock after step 0 (3.5 µs).
        assert!(doc.contains("\"name\":\"step 1 compute\",\"ts\":3.5,\"dur\":2"));
    }
}
