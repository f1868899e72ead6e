//! What the host offers: hardware threads, last-level cache, peak memory.

use alya_machine::par;

/// One line naming the host's threads, the worker/rank cap and the LLC.
pub fn describe(seed: u64) -> String {
    let llc = llc_bytes().map_or("unknown".to_string(), |b| b.to_string());
    format!(
        "host nproc {} worker_cap {} ranks {} llc_bytes {llc} seed {seed}",
        par::hardware_threads(),
        crate::workers(),
        crate::workers()
    )
}

/// The working-set line of a case: its computed bytes next to the LLC.
pub fn working_set(case: &str, elements: usize, nodes: usize, bytes: usize) -> String {
    let llc = llc_bytes().map_or("unknown".to_string(), |b| b.to_string());
    format!(
        "case {case} elements {elements} nodes {nodes} working_set_bytes {bytes} (computed) \
         llc_bytes {llc} (from cpuid)"
    )
}

/// Bytes of the largest cache level CPUID describes.
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> Option<usize> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // Intel describes its caches in leaf 4, AMD in leaf 0x8000001D; both
    // use the same register layout.
    let vendor = __cpuid(0).ebx.to_le_bytes();
    let leaf = match &vendor {
        b"Genu" => 4,
        b"Auth" => 0x8000_001D,
        _ => return None,
    };
    if leaf > 4 && __cpuid(0x8000_0000).eax < leaf {
        return None;
    }
    let mut best: Option<(u32, usize)> = None;
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        let size = ways * partitions * line * sets;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// Bytes of the largest cache level (not known off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> Option<usize> {
    None
}

/// Peak resident set size of this process so far, MB (the kernel's
/// high-water mark of this process image, `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
