//! Property-based tests for the downlink queue and the day replay built
//! on it: conservation, priority ordering and storage bounds must hold
//! for arbitrary workloads.

use kodan::queue::{DownlinkQueue, QueueEntry};
use kodan::replay::DayReplay;
use kodan::runtime::FrameOutcome;
use kodan_cote::sim::ServedPass;
use kodan_cote::time::{Duration, Epoch};
use kodan_telemetry::TapeRecorder;
use proptest::prelude::*;

fn entry_strategy() -> impl Strategy<Value = QueueEntry> {
    (1.0f64..1000.0, 0.0f64..1.0).prop_map(|(bits, density)| {
        QueueEntry::new(bits, bits * density).expect("generated entry is valid")
    })
}

/// One queue operation, for interleaving properties.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(QueueEntry),
    Drain(f64),
    Shed(f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim has no `prop_oneof`; a discriminant drawn alongside the
    // operands picks the variant. Pushes dominate (two of four arms) so
    // interleavings actually build queue state to drain and shed.
    (0u8..4, 1.0f64..1000.0, 0.0f64..1.0, 0.0f64..2000.0).prop_map(
        |(kind, bits, density, amount)| match kind {
            0 | 1 => Op::Push(
                QueueEntry::new(bits, bits * density).expect("generated entry is valid"),
            ),
            2 => Op::Drain(amount),
            _ => Op::Shed(amount),
        },
    )
}

/// A valid frame outcome: value <= sent <= observed.
fn outcome_strategy() -> impl Strategy<Value = FrameOutcome> {
    (0u64..5_000, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..60.0, 0usize..40, 0usize..40).prop_map(
        |(observed, sent_frac, value_frac, compute_s, elided, processed)| {
            let sent_px = (observed as f64 * sent_frac) as u64;
            let value_px = (sent_px as f64 * value_frac) as u64;
            FrameOutcome {
                compute: Duration::from_seconds(compute_s),
                sent_px,
                value_px,
                observed_px: observed,
                observed_value_px: value_px,
                tiles_elided: elided,
                tiles_processed: processed,
            }
        },
    )
}

/// A pass somewhere in the day, for satellite 0 or a neighbour.
fn pass_strategy() -> impl Strategy<Value = ServedPass> {
    (0.0f64..20_000.0, 0.0f64..900.0, 0.0f64..2_000.0, 0usize..2).prop_map(
        |(start_s, length_s, rate_bps, satellite)| {
            let start = Epoch::mission_start() + Duration::from_seconds(start_s);
            ServedPass {
                satellite,
                station: 0,
                start,
                end: start + Duration::from_seconds(length_s),
                rate_bps,
            }
        },
    )
}

proptest! {
    #[test]
    fn day_replay_conserves_and_bounds_the_day(
        outcomes in prop::collection::vec(outcome_strategy(), 0..8),
        passes in prop::collection::vec(pass_strategy(), 0..12),
        storage in 1.0f64..50_000.0,
        frames_per_day in 0u64..1_000,
    ) {
        let bits_per_px = 10.0;
        let replay = DayReplay::new(
            &passes,
            0,
            Duration::from_seconds(22.0),
            frames_per_day,
            bits_per_px,
            storage,
            None,
        )
        .expect("positive storage and bits per pixel");
        let mut tape = TapeRecorder::new();
        let (rows, day) = replay.fly_day(&outcomes, &mut tape);

        let own: Vec<&ServedPass> = passes.iter().filter(|p| p.satellite == 0).collect();
        prop_assert_eq!(rows.len(), own.len());
        let mut budget = 0.0;
        for p in &own {
            budget += p.bits() / bits_per_px;
        }
        // The per-pass rows fold, in order, to the summary.
        let mut sent = 0.0;
        let mut sent_value = 0.0;
        for row in &rows {
            prop_assert!(row.sent_value_px <= row.sent_px + 1e-6);
            sent += row.sent_px;
            sent_value += row.sent_value_px;
        }
        prop_assert_eq!(sent.to_bits(), day.sent_px.to_bits());
        prop_assert_eq!(sent_value.to_bits(), day.sent_value_px.to_bits());
        // Sent never exceeds what the passes could carry, value never
        // exceeds volume.
        prop_assert!(day.sent_px <= budget + 1e-6, "sent {} > budget {}", day.sent_px, budget);
        prop_assert!(day.sent_value_px <= day.sent_px + 1e-6);
        // Every enqueued pixel is sent, evicted, still queued or shed.
        let accounted = day.sent_px + day.storage_dropped_px + day.residual_px + day.shed_px;
        prop_assert!(
            (accounted - day.enqueued_px).abs() <= 1e-9 * day.enqueued_px.max(1.0),
            "accounted {} vs enqueued {}",
            accounted,
            day.enqueued_px
        );
        // A fault-free day sheds nothing and records nothing.
        prop_assert_eq!(day.shed_px, 0.0);
        prop_assert_eq!(day.contacts_dropped + day.contacts_shortened, 0);
        prop_assert!(tape.is_empty(), "fault-free replay recorded {} calls", tape.len());
    }

    #[test]
    fn bits_are_conserved(
        entries in prop::collection::vec(entry_strategy(), 1..60),
        storage in 100.0f64..50_000.0,
        budget in 0.0f64..50_000.0,
    ) {
        let mut q = DownlinkQueue::new(storage);
        let mut pushed = 0.0;
        let mut pushed_value = 0.0;
        for e in &entries {
            pushed += e.bits;
            pushed_value += e.value_bits;
            q.push(*e);
        }
        let r = q.drain(budget);
        // Conservation of volume and value.
        let accounted = r.sent_bits + q.dropped_bits() + q.occupied_bits();
        prop_assert!((accounted - pushed).abs() < 1e-6);
        prop_assert!(r.sent_value_bits <= pushed_value + 1e-6);
        // Bounds.
        prop_assert!(r.sent_bits <= budget + 1e-6);
        prop_assert!(q.occupied_bits() <= storage + 1e-6);
        prop_assert!(r.sent_value_bits <= r.sent_bits + 1e-6);
    }

    #[test]
    fn drained_density_dominates_residual_density(
        entries in prop::collection::vec(entry_strategy(), 2..40),
        budget_fraction in 0.1f64..0.9,
    ) {
        // With unbounded storage, what goes down first must be at least
        // as dense as what stays behind.
        let mut q = DownlinkQueue::new(1e12);
        let total: f64 = entries.iter().map(|e| e.bits).sum();
        for e in &entries {
            q.push(*e);
        }
        let r = q.drain(total * budget_fraction);
        if r.sent_bits > 1e-9 && q.occupied_bits() > 1e-9 {
            let sent_density = r.sent_value_bits / r.sent_bits;
            let residual_value: f64 =
                entries.iter().map(|e| e.value_bits).sum::<f64>() - r.sent_value_bits;
            let residual_density = residual_value / q.occupied_bits();
            prop_assert!(
                sent_density >= residual_density - 1e-6,
                "sent {} < residual {}",
                sent_density,
                residual_density
            );
        }
    }

    #[test]
    fn eviction_never_exceeds_storage(
        entries in prop::collection::vec(entry_strategy(), 1..80),
        storage in 50.0f64..2_000.0,
    ) {
        let mut q = DownlinkQueue::new(storage);
        for e in &entries {
            q.push(*e);
            prop_assert!(q.occupied_bits() <= storage + 1e-6);
        }
    }

    #[test]
    fn occupancy_is_exactly_the_entry_sum_under_arbitrary_interleavings(
        ops in prop::collection::vec(op_strategy(), 1..120),
        storage in 50.0f64..20_000.0,
    ) {
        // The occupancy invariant that the incremental +=/-= accounting
        // used to violate: after ANY interleaving of push, drain and
        // shed, `occupied_bits` equals the serial in-order sum of
        // `entries()` sizes *bitwise* — not approximately.
        let mut q = DownlinkQueue::new(storage);
        for op in &ops {
            match *op {
                Op::Push(e) => q.push(e),
                Op::Drain(budget) => {
                    let r = q.drain(budget);
                    prop_assert!(r.sent_bits >= 0.0);
                    prop_assert!(r.sent_value_bits >= 0.0);
                    prop_assert!(r.sent_value_bits <= r.sent_bits + 1e-6);
                }
                Op::Shed(bits) => {
                    let r = q.shed_lowest(bits);
                    prop_assert!(r.shed_bits >= 0.0);
                    prop_assert!(r.shed_value_bits <= r.shed_bits + 1e-6);
                }
            }
            let mut sum = 0.0;
            for e in q.entries() {
                sum += e.bits;
            }
            prop_assert_eq!(
                q.occupied_bits().to_bits(),
                sum.to_bits(),
                "occupied {} != entry sum {} after {:?}",
                q.occupied_bits(),
                sum,
                op
            );
            prop_assert!(q.occupied_bits() <= storage + 1e-6);
            prop_assert!(q.dropped_bits() >= 0.0);
            prop_assert!(q.dropped_value_bits() <= q.dropped_bits() + 1e-6);
        }
    }

    #[test]
    fn entries_stay_valid_and_density_sorted_under_interleavings(
        ops in prop::collection::vec(op_strategy(), 1..120),
        storage in 50.0f64..20_000.0,
    ) {
        // Splitting on drain and evicting on push must never manufacture
        // an invalid entry (value above size, negative size) or break
        // the ascending-density order that one-pass eviction and
        // back-pop draining both rely on.
        let mut q = DownlinkQueue::new(storage);
        for op in &ops {
            match *op {
                Op::Push(e) => q.push(e),
                Op::Drain(budget) => {
                    q.drain(budget);
                }
                Op::Shed(bits) => {
                    q.shed_lowest(bits);
                }
            }
            let entries = q.entries();
            for e in entries {
                prop_assert!(e.bits > 0.0, "zero-size entry survived: {e:?}");
                prop_assert!(e.value_bits >= 0.0);
                prop_assert!(e.value_bits <= e.bits + 1e-6, "invalid entry {e:?}");
            }
            for pair in entries.windows(2) {
                prop_assert!(
                    pair[0].density() <= pair[1].density() + 1e-12,
                    "density order broken: {:?} before {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn repeated_drains_eventually_empty_the_queue(
        entries in prop::collection::vec(entry_strategy(), 1..30),
    ) {
        let mut q = DownlinkQueue::new(1e12);
        for e in &entries {
            q.push(*e);
        }
        for _ in 0..2000 {
            if q.is_empty() {
                break;
            }
            q.drain(100.0);
        }
        prop_assert!(q.is_empty());
        prop_assert!(q.occupied_bits().abs() < 1e-6);
    }
}
