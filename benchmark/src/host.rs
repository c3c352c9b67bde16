//! A fixed piece of work owned by the benchmark, timed before and after a
//! run: if the host itself got slower or faster in between (another tenant,
//! frequency scaling), the run is marked `disturbed` rather than trusted.

use std::time::Instant;

const STREAM_WORDS: usize = 32 * 1024 * 1024 / 8;
const TABLE_SLOTS: usize = 1 << 20;
const PROBES: usize = TABLE_SLOTS;
const ROUNDS: u64 = 7;

/// Outside this band of after ÷ before the host is considered disturbed.
pub const DRIFT_BAND: (f64, f64) = (0.95, 1.05);

/// Milliseconds for one pass: write and sum a 32 MiB stream, then chase
/// a million dependent pseudo-random probes through a 1 M-slot table. The
/// best of seven short passes: the floor is what the host can do when nothing
/// disturbs it, and it repeats to about a percent on a quiet box.
pub fn yardstick_ms() -> f64 {
    let mut stream = vec![0u64; STREAM_WORDS];
    let mut table = vec![0u32; TABLE_SLOTS];
    let mut best = f64::INFINITY;
    for round in 0..ROUNDS {
        let t = Instant::now();
        for (i, w) in stream.iter_mut().enumerate() {
            *w = i as u64 ^ round;
        }
        let mut acc = stream.iter().fold(0u64, |a, w| a.wrapping_add(*w));
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
        for _ in 0..PROBES {
            // xorshift64: each probe's slot depends on the previous one.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x.wrapping_add(acc) as usize) % TABLE_SLOTS;
            table[slot] = table[slot].wrapping_add(1);
            acc = acc.wrapping_add(u64::from(table[slot]));
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Whether the yardstick moved by more than the band between two readings.
pub fn disturbed(before_ms: f64, after_ms: f64) -> bool {
    let drift = after_ms / before_ms;
    drift < DRIFT_BAND.0 || drift > DRIFT_BAND.1
}
