//! `RssSampler` charges a region only for the memory it adds.
//!
//! This file holds one test so that it runs alone in its own process: no
//! other test allocates or frees memory while the sampler watches.

#[cfg(target_os = "linux")]
#[test]
fn growth_counts_memory_touched_in_the_region_but_not_memory_held_before() {
    use mtm_experiments::perf::RssSampler;
    const MIB: usize = 1 << 20;
    // Non-zero fills write every page, so both blocks are resident.
    let held = vec![1u8; 64 * MIB];
    let sampler = RssSampler::start(1);
    let touched = vec![2u8; 32 * MIB];
    std::thread::sleep(std::time::Duration::from_millis(10));
    let reading = sampler.stop().expect("VmRSS available on Linux");
    std::hint::black_box((&held, &touched));
    let growth = reading.growth() as usize;
    assert!(reading.start >= (64 * MIB) as u64, "start {} misses the held block", reading.start);
    assert!(growth >= 32 * MIB, "growth {growth} misses the block touched in the region");
    assert!(growth < 64 * MIB, "growth {growth} counts the block held before the region");
}
