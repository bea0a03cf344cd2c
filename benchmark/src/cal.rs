//! The calibration kernel: one frozen, single-threaded piece of work that
//! calls no crate of the repo. Every measured section (iteration, set-up,
//! probe) is bracketed by a kernel run before and after it; the section's
//! durations are divided by its factor (see [`factors`]), so a reported
//! `nms`/`nus`/`setup_s` is the time the work would take on a machine on
//! which the kernel takes exactly `CAL_REF_MS`.
//!
//! FROZEN: editing `kernel`, its constants or `CAL_REF_MS` re-bases every
//! normalized metric and voids all comparisons with earlier results.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel wall time on the reference machine, milliseconds.
pub const CAL_REF_MS: f64 = 25.0;

const ROUNDS: usize = 7;
const ITEMS: usize = 40_000;
const DISTINCT_KEYS: u64 = 65_521;

type Key = [u8; 16];
type FixedHashMap = HashMap<Key, u64, BuildHasherDefault<DefaultHasher>>;

thread_local! {
    /// The kernel's two containers, allocated once per thread.
    static SCRATCH: RefCell<(Vec<(u64, Key)>, FixedHashMap)> =
        RefCell::new((Vec::with_capacity(ITEMS), FixedHashMap::default()));
}

/// Hashing of short keys, hash-map upserts and a comparison sort over a
/// working set of a few MiB — the system under test's staple, minus the
/// allocator. Of the kernels tried (README, "Calibration"), this one's time
/// followed the workloads' walls most closely (r ≈ 0.9 over runs whose raw
/// walls ranged by 10–16 %). It allocates nothing while it runs and its hash
/// keys are fixed: the kernel shares heap and process with the program it
/// normalizes, and with `String` keys and per-process random hash keys its
/// own time differed by ~7 % from one process to the next.
fn kernel() -> u64 {
    SCRATCH.with(|scratch| {
        let (items, map) = &mut *scratch.borrow_mut();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u64 = 0;
        for _ in 0..ROUNDS {
            items.clear();
            map.clear();
            for _ in 0..ITEMS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut key = *b"key-000000000000";
                let mut n = x % DISTINCT_KEYS;
                for digit in key.iter_mut().rev().take(6) {
                    *digit = b'0' + (n % 10) as u8;
                    n /= 10;
                }
                items.push((x, key));
            }
            for (v, k) in items.iter() {
                *map.entry(*k).or_insert(0) += v & 0xff;
            }
            items.sort();
            acc = acc
                .wrapping_add(items[ITEMS / 2].0)
                .wrapping_add(map.len() as u64)
                .wrapping_add(map.get(b"key-000000000007").copied().unwrap_or(0));
        }
        acc
    })
}

/// One kernel run, wall milliseconds.
pub fn run_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel runs pooled into one factor: a single run spreads by a few
/// percent within a process, and every E1 latency of an iteration is divided
/// by that iteration's factor, so the noise of a lone bracket would widen
/// the pooled latency distribution. Eight runs span a few seconds; drift
/// takes minutes.
const WINDOW: usize = 8;

/// Normalization factors of `n` consecutive sections bracketed by the
/// `n + 1` kernel runs `cal_ms` (section `i` ran between `cal_ms[i]` and
/// `cal_ms[i + 1]`): the median of the `WINDOW` runs around the section over
/// `CAL_REF_MS`; > 1 on a machine slower than the reference.
pub fn factors(cal_ms: &[f64]) -> Vec<f64> {
    let sections = cal_ms.len().saturating_sub(1);
    (0..sections)
        .map(|i| {
            // runs i and i + 1 are the bracket; widen evenly around them
            let lo = (i + 1).saturating_sub(WINDOW / 2);
            let hi = (lo + WINDOW).min(cal_ms.len());
            let lo = hi.saturating_sub(WINDOW);
            crate::stats::median(&cal_ms[lo..hi]) / CAL_REF_MS
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_windowed_medians_over_the_reference() {
        assert!(factors(&[]).is_empty() && factors(&[25.0]).is_empty());
        // one section: the median of its two bracketing runs
        assert_eq!(factors(&[20.0, 30.0]), [1.0]);
        assert_eq!(factors(&[50.0, 50.0, 50.0]), [2.0, 2.0]);
        // a spike in one run does not reach the factor
        let mut runs = vec![25.0; 12];
        runs[5] = 60.0;
        assert_eq!(factors(&runs), vec![1.0; 11]);
        // a lasting shift does, once the window is past it
        let shifted: Vec<f64> = (0..24).map(|i| if i < 12 { 25.0 } else { 50.0 }).collect();
        let f = factors(&shifted);
        assert_eq!(f.len(), 23);
        assert_eq!((f[0], f[22]), (1.0, 2.0));
        assert!(f.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
