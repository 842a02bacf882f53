//! Host speed probe.
//!
//! The benchmark shares a few cores of a host with other tenants, and the
//! speed those cores give it drifts by ±15 % over seconds to minutes. The
//! drift moves every instance's timings together, so ten runs of the same
//! code spread by 12–28 % (interquartile distance over median), as wide as
//! the largest regression bound allowed. Fixed work timed next to the
//! instances drifts with them.
//!
//! The drift is not the same for every kind of work. Arithmetic on
//! registers tracks the lockstep rounds; random reads over a buffer larger
//! than L2 track graph generation, whose repair loop is bound by memory
//! latency. So a probe times both, [`spin`] and [`chase`], and the host's
//! speed is the geometric mean of the two. A run probes after every
//! instance and reports each instance's timings scaled by [`REFERENCE`]
//! over the mean speed of the probes around it: the time the instance
//! would have taken on a host where the probe takes exactly [`REFERENCE`].
//! The probe calls no code of the simulator, so a change to the simulator
//! moves the scaled timings exactly as much as the raw ones.

use std::hint::black_box;

use crate::trace::Tracer;

/// One probe's two timings, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Probe {
    pub(crate) spin_ns: f64,
    pub(crate) chase_ns: f64,
}

impl Probe {
    /// Geometric mean of the two timings.
    fn ns(self) -> f64 {
        (self.spin_ns * self.chase_ns).sqrt()
    }
}

/// The probe's timings on the reference host: medians of 687 probes taken
/// over 20 runs on the 2-vCPU Intel Xeon (L2 2 MiB, L3 105 MiB) the
/// committed results were recorded on, rounded.
pub(crate) const REFERENCE: Probe = Probe { spin_ns: 18.5e6, chase_ns: 38.0e6 };

/// Iterations of the arithmetic loop.
const SPINS: u64 = 10_000_000;

/// Slots of the chased cycle: 4 MiB of `u32`, twice the L2 size.
const CYCLE_LEN: usize = 1 << 20;

/// Reads per chase.
const CHASE_STEPS: usize = 400_000;

/// SplitMix64's output mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed arithmetic the probe times: `iterations` rounds of integer
/// multiply, shift and xor on registers.
fn spin(iterations: u64) -> u64 {
    let mut s = black_box(1u64);
    let mut acc = 0;
    for _ in 0..iterations {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        acc ^= mix(s);
    }
    acc
}

/// The fixed memory work the probe times: `steps` dependent reads along
/// `cycle`, each at a random slot.
fn chase(cycle: &[u32], steps: usize) -> u32 {
    let mut k = 0u32;
    for _ in 0..steps {
        k = cycle[k as usize];
    }
    k
}

/// One random cycle through all `len` slots (Sattolo's algorithm), the
/// same on every host.
fn random_cycle(len: usize) -> Vec<u32> {
    let mut cycle: Vec<u32> = (0..u32::try_from(len).expect("cycle fits u32")).collect();
    let mut s = 1u64;
    for i in (1..len).rev() {
        s = mix(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
        cycle.swap(i, (s % i as u64) as usize);
    }
    cycle
}

/// Times probes. Holds the chased cycle, 4 MiB, so make it only after the
/// process's peak resident set has been read.
pub(crate) struct Prober {
    cycle: Vec<u32>,
}

impl Prober {
    pub(crate) fn new() -> Prober {
        Prober { cycle: random_cycle(CYCLE_LEN) }
    }

    pub(crate) fn probe(&self, t: &Tracer) -> Probe {
        let start = t.now_ns();
        black_box(chase(black_box(&self.cycle), CHASE_STEPS));
        let mid = t.now_ns();
        black_box(spin(black_box(SPINS)));
        let end = t.now_ns();
        Probe { spin_ns: (end - mid) as f64, chase_ns: (mid - start) as f64 }
    }
}

/// The factor that turns a timing taken between probes `before` and
/// `after` into reference-host time.
pub(crate) fn scale(before: Probe, after: Probe) -> f64 {
    2.0 * REFERENCE.ns() / (before.ns() + after.ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(k: f64) -> Probe {
        Probe { spin_ns: k * REFERENCE.spin_ns, chase_ns: k * REFERENCE.chase_ns }
    }

    #[test]
    fn a_slow_host_scales_timings_down() {
        assert!((scale(REFERENCE, REFERENCE) - 1.0).abs() < 1e-12);
        // The host ran at two thirds of the reference speed around the
        // instance: its timings shrink by that much.
        assert!((scale(times(1.5), times(1.5)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((scale(times(1.0), times(3.0)) - 0.5).abs() < 1e-12);
        // Memory slower by 4x and arithmetic at reference speed: 2x slower.
        let slow_memory = Probe { chase_ns: 4.0 * REFERENCE.chase_ns, ..REFERENCE };
        assert!((scale(slow_memory, slow_memory) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_probe_work_is_fixed_and_not_folded_away() {
        assert_ne!(spin(1000), spin(1001));
        assert_eq!(spin(1000), spin(1000));
        let cycle = random_cycle(1000);
        // One cycle: every slot is reached before the walk returns to 0.
        let mut seen = vec![false; cycle.len()];
        let mut k = 0;
        for _ in 0..cycle.len() {
            assert!(!seen[k as usize]);
            seen[k as usize] = true;
            k = cycle[k as usize];
        }
        assert_eq!(k, 0);
        assert_eq!(chase(&cycle, cycle.len()), 0);
        assert_eq!(random_cycle(1000), cycle, "the same on every call");
    }
}
