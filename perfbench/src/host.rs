//! Process clocks and provenance: what ran, where, from which sources.
//!
//! Everything here is read without touching files outside the checkout:
//! CPU facts come from `cpuid`, clocks and peak memory from libc calls.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by all threads of this process, seconds.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, seconds.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs the calling thread may run on, ascending (empty when the
/// kernel does not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Lets the calling thread run only on `cpus`; `false` when the kernel
/// refuses. Threads it spawns afterwards inherit the restriction.
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Peak resident set size of this process so far, MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` matches the kernel's struct rusage layout on 64-bit
    // Linux and is valid for writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.ru_maxrss as f64 / 1024.0
}

/// CPU model string and last-level cache size in KiB, from `cpuid`.
#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // `__cpuid_count` is a safe fn on newer toolchains.
fn cpu_facts() -> (String, u64) {
    use std::arch::x86_64::__cpuid_count;
    // SAFETY: cpuid is available on every x86_64 CPU; leaves are only
    // queried when the maximum-leaf checks allow them.
    unsafe {
        let mut model = String::from("unknown");
        if __cpuid_count(0x8000_0000, 0).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid_count(leaf, 0);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            model = s.trim_matches(char::from(0)).trim().to_string();
        }
        // Deterministic cache parameters (leaf 4): keep the highest level.
        let mut llc = (0u32, 0u64);
        if __cpuid_count(0, 0).eax >= 4 {
            for sub in 0..16 {
                let r = __cpuid_count(4, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let level = (r.eax >> 5) & 0x7;
                let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
                let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
                let line = u64::from(r.ebx & 0xfff) + 1;
                let sets = u64::from(r.ecx) + 1;
                if level >= llc.0 {
                    llc = (level, ways * parts * line * sets / 1024);
                }
            }
        }
        (model, llc.1)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_facts() -> (String, u64) {
    ("unknown".to_string(), 0)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The git revision of the checkout, read from `.git` directly (the
/// benchmark may run from a plain source tree, which has none).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Fingerprint of the program's sources: every file under `crates/` and
/// `vendor/` plus the root manifest and lock file, in sorted path order.
/// Identifies the code even where there is no git metadata.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h = FNV_BASIS;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h = fnv1a(rel.to_string_lossy().as_bytes(), h);
            h = fnv1a(&bytes, h);
        }
    }
    format!("{h:016x}")
}

/// Provenance stamped on every result.
pub fn provenance_json(
    workload: &str,
    seed: u64,
    trace: bool,
    config_fingerprint: u64,
    heldout_seed: u64,
) -> String {
    let root = Path::new(".");
    let (model, llc_kib) = cpu_facts();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\
         \"heldout_seed\":{heldout_seed},\"config_fingerprint\":\"{config_fingerprint:016x}\",\
         \"git_rev\":\"{}\",\"source_fingerprint\":\"{}\",\
         \"host\":{{\"cpu_model\":\"{}\",\"nproc\":{nproc},\"llc_kib\":{llc_kib}}}}}}}",
        git_rev(root),
        source_fingerprint(root),
        model.replace('"', "'"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b"", FNV_BASIS), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_BASIS), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn clocks_move_forward() {
        let (a, t) = (process_cpu_s(), thread_cpu_s());
        std::hint::black_box((0..1_000_000u64).fold(0u64, |x, y| x ^ y.wrapping_mul(3)));
        assert!(process_cpu_s() >= a && thread_cpu_s() >= t);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pinning_round_trips() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        std::thread::spawn(move || {
            assert!(pin_thread(&all[..1]));
            assert_eq!(allowed_cpus(), all[..1]);
            assert!(pin_thread(&all));
            assert_eq!(allowed_cpus(), all);
        })
        .join()
        .unwrap();
    }
}
