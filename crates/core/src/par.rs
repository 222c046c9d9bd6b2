//! Telemetry-aware parallel execution.
//!
//! The executor itself — contiguous sharding, input-ordered results,
//! worker-count resolution — is `kodan_geodata::par`, the workspace's
//! one sanctioned home for threads. This module adds the two pieces that
//! need to know about Kodan's telemetry and training, and keeps the same
//! invariant: **outputs are a pure function of inputs and seed, never of
//! worker count or interleaving.**
//!
//! - **Tape-and-replay telemetry.** [`par_map_recorded`] gives each item
//!   a private [`TapeRecorder`]; after the join, tapes are replayed into
//!   the real recorder in item-index order, so the recorder observes the
//!   exact call sequence of a serial run and snapshots stay
//!   byte-identical (see `kodan_telemetry::tape`).
//! - **Seed streams.** Parallel training derives one RNG stream per task
//!   via [`stream_seed`]; streams are keyed on stable task identity
//!   (context id, grid index), never on worker or completion order.

use kodan_geodata::par::par_map_indexed;
use kodan_telemetry::{NullRecorder, Recorder, TapeRecorder};

/// Derives a deterministic RNG seed for a numbered stream of a master
/// seed. Streams are keyed on stable task identity (context id, grid
/// index), so parallel training draws the same randomness as serial.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    master.wrapping_add(stream)
}

/// Like [`par_map_indexed`], but each call of `f` also gets a recorder.
///
/// - Serial (`workers <= 1`): `f` records straight into `recorder`.
/// - Parallel with a disabled recorder: workers record into throwaway
///   [`NullRecorder`]s — the zero-cost path stays zero-cost.
/// - Parallel with an enabled recorder: each item records onto its own
///   [`TapeRecorder`]; tapes are replayed into `recorder` in item-index
///   order after the join, reproducing the serial call sequence exactly.
pub fn par_map_recorded<I, T, F>(
    workers: usize,
    items: &[I],
    recorder: &mut dyn Recorder,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, &mut dyn Recorder) -> T + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item, recorder))
            .collect();
    }
    if !recorder.enabled() {
        return par_map_indexed(workers, items, |i, item| {
            let mut null = NullRecorder;
            f(i, item, &mut null)
        });
    }
    let mut taped = par_map_indexed(workers, items, |i, item| {
        let mut tape = TapeRecorder::new();
        let value = f(i, item, &mut tape);
        (value, tape)
    });
    let mut out = Vec::with_capacity(n);
    for (value, tape) in taped.drain(..) {
        tape.replay_into(recorder);
        out.push(value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_telemetry::{StageId, SummaryRecorder, TelemetryEvent};

    #[test]
    fn recorded_map_is_byte_identical_across_worker_counts() {
        let items: Vec<u64> = (0..9).collect();
        let run = |workers: usize| {
            let mut recorder = SummaryRecorder::new();
            let values = par_map_recorded(workers, &items, &mut recorder, |i, x, rec| {
                rec.event(TelemetryEvent::FrameCaptured {
                    pixels: (x + 1) as u64,
                });
                rec.span(StageId::Frame, 0.01 * (i as f64 + 1.0), 1);
                x * 2
            });
            (values, recorder.snapshot().to_json())
        };
        let (serial_values, serial_json) = run(1);
        for workers in [2, 3, 4] {
            let (values, json) = run(workers);
            assert_eq!(serial_values, values, "workers={workers}");
            assert_eq!(serial_json, json, "workers={workers}");
        }
    }

    #[test]
    fn disabled_recorder_takes_the_null_path() {
        let mut null = NullRecorder;
        let values = par_map_recorded(4, &[1u32, 2, 3, 4, 5], &mut null, |_, x, rec| {
            rec.count(kodan_telemetry::CounterId::FramesProcessed, 1);
            x * x
        });
        assert_eq!(values, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn stream_seeds_are_stable() {
        assert_eq!(stream_seed(40, 2), 42);
        assert_eq!(stream_seed(u64::MAX, 1), 0);
    }
}
