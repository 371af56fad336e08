//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed drifts: a fixed integer
//! loop runs 8–20 % slower for tens of seconds at a time, and every
//! wall time of the program moves with it. A fixed kernel, timed before
//! and after each sample, measures that drift. Each sample's wall times
//! are scaled by [`REFERENCE_S`] over the kernel's time around it, so
//! reported times are seconds at the reference host speed. The kernel
//! lives here, outside the program, so a change to the program cannot
//! move it.

use std::time::Instant;

/// Seconds a [`kernel_s`] measurement typically took on the 2-vCPU
/// machine the bounds in `BENCHMARK.json` were set on. It fixes only the
/// level of the reported times, not their spread.
pub const REFERENCE_S: f64 = 0.075;

/// Passes timed per measurement; the median is kept.
const PASSES: usize = 3;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Seconds of one pass of the kernel: a hashing loop over 1 MiB, then a
/// loop of data-dependent branches over 64 KiB, the two shapes of work
/// the simulators do.
fn pass(words: &[u64], ops: &[u8]) -> f64 {
    let t = Instant::now();
    let mut h = 0u64;
    for _ in 0..300 {
        for &v in words {
            h = h.rotate_left(5) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    let mut acc = [h, 0, 0, 0];
    for r in 0..60u64 {
        for &op in ops {
            match op {
                0 => acc[0] = acc[0].wrapping_add(r),
                1 => acc[1] ^= acc[0].rotate_left(3),
                2 => acc[2] = acc[2].wrapping_mul(3) ^ acc[1],
                _ => acc[3] = acc[3].wrapping_sub(acc[2] >> 1),
            }
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The kernel's current time: the median of [`PASSES`] passes.
pub fn kernel_s() -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let words: Vec<u64> = (0..1 << 17).map(|_| xorshift(&mut x)).collect();
    let ops: Vec<u8> = (0..1 << 16).map(|_| (xorshift(&mut x) % 4) as u8).collect();
    crate::median(&(0..PASSES).map(|_| pass(&words, &ops)).collect::<Vec<_>>())
}
