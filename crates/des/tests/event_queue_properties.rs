//! Property test of the future-event list against a reference queue.
//!
//! The reference keeps pending events in push order and pops the first
//! one with the smallest time, i.e. the head of a stable sort by time:
//! exactly the `(time, seq)` order the event list promises. Times come
//! from a small pool (ties are common, `−0.0` and `+0.0` tie) mixed
//! with arbitrary non-negative values from subnormal to `+∞`, and
//! pushes and pops interleave at random. `PROPTEST_CASES` widens the
//! case count.

use hmcs_des::event::EventQueue;
use hmcs_des::time::SimTime;
use proptest::prelude::*;

/// Times many events share, so ties and zero signs are exercised.
const POOL: [f64; 6] = [-0.0, 0.0, 1.0, 2.5, 1e300, f64::INFINITY];

/// One step: `Some(time)` pushes the next id at `time`, `None` pops.
fn op() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        (0usize..POOL.len()).prop_map(|i| Some(POOL[i])),
        (0usize..POOL.len()).prop_map(|i| Some(POOL[i])),
        (0u64..0x7FF0_0000_0000_0001).prop_map(|bits| Some(f64::from_bits(bits))),
        Just(None),
        Just(None),
    ]
}

/// Pops the reference's earliest event: the first minimum in push
/// order.
fn reference_pop(pending: &mut Vec<(f64, usize)>) -> Option<(f64, usize)> {
    let mut best = 0;
    for (i, &(t, _)) in pending.iter().enumerate().skip(1) {
        if t < pending[best].0 {
            best = i;
        }
    }
    (!pending.is_empty()).then(|| pending.remove(best))
}

/// Pops both queues and checks they agree, exact time bits included.
fn pop_both(
    queue: &mut EventQueue<usize>,
    pending: &mut Vec<(f64, usize)>,
) -> Result<(), TestCaseError> {
    let got = queue.pop().map(|(t, id)| (t.as_us().to_bits(), id));
    let want = reference_pop(pending).map(|(t, id)| (t.to_bits(), id));
    prop_assert_eq!(got, want);
    prop_assert_eq!(queue.len(), pending.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_push_pop_matches_a_stable_sort(ops in proptest::collection::vec(op(), 0..400)) {
        let mut queue = EventQueue::new();
        let mut pending: Vec<(f64, usize)> = Vec::new();
        let mut next_id = 0;
        for op in ops {
            match op {
                Some(t) => {
                    queue.push(SimTime::from_us(t), next_id);
                    pending.push((t, next_id));
                    next_id += 1;
                }
                None => pop_both(&mut queue, &mut pending)?,
            }
        }
        while !pending.is_empty() {
            pop_both(&mut queue, &mut pending)?;
        }
        prop_assert!(queue.pop().is_none());
    }
}
