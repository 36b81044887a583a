//! Host speed, sampled while a workload runs.
//!
//! On a shared host the same work takes a different time from one run
//! to the next. Measured on the 2-core KVM guest the benchmark was tuned
//! on, a fixed computation runs at one of two speeds about 1.5× apart,
//! switching every few seconds, and separately on each virtual CPU:
//! other tenants' work on the same physical core slows ours. The
//! program's work slows with it, though less.
//!
//! So a sampler thread pinned to each CPU the workload runs on repeats a
//! fixed reference computation — a complex FFT round trip written here,
//! so no change to the program can change it — at a low duty cycle for
//! the whole run and records each chunk's thread CPU time. Time slicing
//! puts the sampler on the same core, in the same spells, as the work
//! it shares a CPU with. Over an interval, the host's *speed* is the
//! mean of the nominal chunk time over each chunk's time; a time measured over
//! the interval times `speed^ELASTICITY` is that time at the nominal
//! speed. A change to the program moves that figure; a spell of
//! contention mostly does not.

use crate::host::{allowed_cpus, pin_thread, thread_cpu_s};
use std::f32::consts::PI;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Points of the reference FFT (32 KiB of complex f32).
const REF_POINTS: usize = 1 << 12;
/// Forward + inverse round trips per chunk.
const REF_ROUND_TRIPS: usize = 4;
/// Time between the starts of two chunks on one CPU. A chunk takes
/// about NOMINAL_CHUNK_MS, so a sampler uses about 4% of its CPU.
const PERIOD: Duration = Duration::from_millis(20);
/// One chunk's thread CPU time at the nominal host speed, ms: about its
/// time in the fast spells on the host the benchmark was tuned on (Xeon,
/// Sapphire Rapids, 2 vCPUs under KVM). A scale only — it makes
/// normalised times read like milliseconds on that host when it is
/// quiet.
pub const NOMINAL_CHUNK_MS: f64 = 0.6;
/// How much of the reference's slowdown the program's work shares, as a
/// power. The program slows less than the FFT loop in a slow spell (the
/// loop runs more instructions per cycle, so a busy neighbour on the
/// core costs it more). Fitting log time against log speed across ten
/// runs of each workload on the tuning host gave 0.77 (`guard_stream`),
/// 0.71 (`calibrate`) and 0.59 (`eval_sweep`).
pub const ELASTICITY: f64 = 0.75;
/// Share of chunks dropped at each end before averaging: a chunk the
/// scheduler cut in two refills its cache and reads slow.
const TRIM: f64 = 0.05;

/// The reference computation: an in-place radix-2 complex FFT forward
/// and back, restarted from the same signal every chunk.
struct Reference {
    signal: Vec<[f32; 2]>,
    buf: Vec<[f32; 2]>,
    twiddles: Vec<[f32; 2]>,
}

impl Reference {
    fn new() -> Self {
        let n = REF_POINTS;
        let signal = (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                [
                    (2.0 * PI * 37.0 * t).sin(),
                    (2.0 * PI * 5.0 * t).cos() * 0.5,
                ]
            })
            .collect();
        let twiddles = (0..n / 2)
            .map(|k| {
                let a = -2.0 * PI * k as f32 / n as f32;
                [a.cos(), a.sin()]
            })
            .collect();
        Reference {
            signal,
            buf: vec![[0.0; 2]; n],
            twiddles,
        }
    }

    fn fft(&mut self, inverse: bool) {
        let n = self.buf.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                self.buf.swap(i, j);
            }
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut len = 2;
        while len <= n {
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let [wr, wi] = self.twiddles[k * step];
                    let wi = wi * sign;
                    let [ar, ai] = self.buf[start + k];
                    let [br, bi] = self.buf[start + k + len / 2];
                    let (tr, ti) = (br * wr - bi * wi, br * wi + bi * wr);
                    self.buf[start + k] = [ar + tr, ai + ti];
                    self.buf[start + k + len / 2] = [ar - tr, ai - ti];
                }
            }
            len <<= 1;
        }
    }

    /// One chunk; returns a checksum so the work cannot be elided.
    fn chunk(&mut self) -> f32 {
        self.buf.copy_from_slice(&self.signal);
        let scale = 1.0 / self.buf.len() as f32;
        for _ in 0..REF_ROUND_TRIPS {
            self.fft(false);
            self.fft(true);
            for z in &mut self.buf {
                z[0] *= scale;
                z[1] *= scale;
            }
        }
        self.buf[1][0] + self.buf[7][1]
    }
}

/// One reference chunk: when it ended (since the sampler started) and
/// its thread CPU time.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at_s: f64,
    cpu_ms: f64,
}

/// The sampler threads, one per sampled CPU. Dropping it stops and
/// joins them and gives the calling thread back the CPUs it had.
pub struct Sampler {
    origin: Instant,
    samples: Arc<Mutex<Vec<Sample>>>,
    own_cpu_ns: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    restore: Option<Vec<usize>>,
}

impl Sampler {
    /// For a single-threaded workload: pins the calling thread to its
    /// first allowed CPU and samples that CPU.
    pub fn single_thread() -> Self {
        let all = allowed_cpus();
        match all.first() {
            Some(&cpu) if pin_thread(&[cpu]) => {
                let mut s = Sampler::start(&[Some(cpu)]);
                s.restore = Some(all);
                s
            }
            _ => Sampler::start(&[None]),
        }
    }

    /// For a workload that spreads over every CPU: samples each of them.
    pub fn all_cpus() -> Self {
        let all: Vec<Option<usize>> = allowed_cpus().into_iter().map(Some).collect();
        Sampler::start(if all.is_empty() { &[None] } else { &all })
    }

    /// One sampler thread per entry, pinned to that CPU (`None`: left
    /// free).
    fn start(cpus: &[Option<usize>]) -> Self {
        let origin = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let own_cpu_ns = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let handles = cpus
            .iter()
            .map(|&cpu| {
                let (samples, own_cpu_ns, stop) = (
                    Arc::clone(&samples),
                    Arc::clone(&own_cpu_ns),
                    Arc::clone(&stop),
                );
                std::thread::spawn(move || {
                    if let Some(c) = cpu {
                        pin_thread(&[c]);
                    }
                    let mut reference = Reference::new();
                    let mut last = thread_cpu_s();
                    let mut next = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        let c0 = thread_cpu_s();
                        black_box(reference.chunk());
                        let c1 = thread_cpu_s();
                        let sample = Sample {
                            at_s: origin.elapsed().as_secs_f64(),
                            cpu_ms: (c1 - c0) * 1e3,
                        };
                        samples
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(sample);
                        own_cpu_ns.fetch_add(((c1 - last) * 1e9) as u64, Ordering::Relaxed);
                        last = c1;
                        next += PERIOD;
                        let now = Instant::now();
                        if next > now {
                            std::thread::sleep(next - now);
                        } else {
                            next = now;
                        }
                    }
                })
            })
            .collect();
        Sampler {
            origin,
            samples,
            own_cpu_ns,
            stop,
            handles,
            restore: None,
        }
    }

    /// Seconds since the sampler started.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// CPU time used by all threads of the process but the samplers',
    /// seconds.
    pub fn process_cpu_s(&self) -> f64 {
        crate::host::process_cpu_s() - self.own_cpu_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Every chunk time recorded so far, ms.
    pub fn chunk_ms(&self) -> Vec<f64> {
        self.lock().iter().map(|s| s.cpu_ms).collect()
    }

    /// The host's speed over `[from_s, to_s]` relative to the nominal
    /// one: the mean, over the chunks that ended in the interval on
    /// every sampled CPU, of the nominal chunk time over the chunk's
    /// time, with the lowest and highest [`TRIM`] dropped (or, when no
    /// chunk ended inside, the speed of the one nearest to it). Chunks
    /// come at even steps of wall time, so when the host switches speed
    /// within the interval this is its speed averaged over the time, as
    /// the work saw it.
    pub fn speed(&self, from_s: f64, to_s: f64) -> f64 {
        let samples = self.lock();
        let speed = |s: &Sample| NOMINAL_CHUNK_MS / s.cpu_ms.max(1e-9);
        let mut inside: Vec<f64> = samples
            .iter()
            .filter(|s| s.at_s >= from_s && s.at_s <= to_s)
            .map(speed)
            .collect();
        if inside.is_empty() {
            let mid = (from_s + to_s) / 2.0;
            let nearest = samples
                .iter()
                .min_by(|a, b| (a.at_s - mid).abs().total_cmp(&(b.at_s - mid).abs()));
            inside.extend(nearest.map(speed));
        }
        match crate::stats::trimmed_mean(&inside, TRIM) {
            m if m > 0.0 => m,
            _ => 1.0,
        }
    }

    /// The factor that takes a time measured over `[from_s, to_s]` to
    /// the nominal host speed: `speed^ELASTICITY`.
    pub fn factor(&self, from_s: f64, to_s: f64) -> f64 {
        self.speed(from_s, to_s).powf(ELASTICITY)
    }

    /// Stops the threads and waits for them (at most one period), and
    /// gives the calling thread back its CPUs.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(cpus) = self.restore.take() {
            pin_thread(&cpus);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Sample>> {
        self.samples.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trip_restores_the_signal() {
        let mut r = Reference::new();
        r.chunk();
        let err = r
            .buf
            .iter()
            .zip(&r.signal)
            .map(|(a, b)| (a[0] - b[0]).abs().max((a[1] - b[1]).abs()))
            .fold(0.0f32, f32::max);
        assert!(err < 1e-3, "round trip error {err}");
    }

    /// A stopped sampler holding `(ended at s, chunk time in units of
    /// the nominal one)`.
    fn with_samples(samples: &[(f64, f64)]) -> Sampler {
        let mut s = Sampler::start(&[None]);
        s.stop();
        let mut v = s.lock();
        v.clear();
        for &(at_s, ms) in samples {
            v.push(Sample {
                at_s,
                cpu_ms: ms * NOMINAL_CHUNK_MS,
            });
        }
        drop(v);
        s
    }

    #[test]
    fn speed_is_the_mean_chunk_speed_inside_the_interval() {
        let s = with_samples(&[(0.5, 2.0), (1.5, 1.0), (1.6, 0.5), (3.0, 0.25)]);
        assert_eq!(s.speed(1.0, 2.0), 1.5);
        assert_eq!(s.speed(0.0, 1.0), 0.5);
        // No chunk ended inside: the nearest one stands in.
        assert_eq!(s.speed(2.5, 2.9), 4.0);
        assert_eq!(s.speed(0.6, 0.8), 0.5);
        // Half as fast: a time is scaled by 0.5^ELASTICITY.
        assert_eq!(s.factor(0.0, 1.0), 0.5f64.powf(ELASTICITY));
        assert_eq!(s.chunk_ms().len(), 4);
    }

    #[test]
    fn speed_trims_outlying_chunks() {
        // 20 chunks, one cut short by the scheduler and one slowed by it.
        let mut v: Vec<(f64, f64)> = (0..18).map(|i| (i as f64 * 0.02, 1.0)).collect();
        v.extend([(0.5, 0.01), (0.5, 9.0)]);
        assert_eq!(with_samples(&v).speed(0.0, 1.0), 1.0);
    }

    #[test]
    fn sampler_records_chunks_and_stops() {
        let mut s = Sampler::all_cpus();
        std::thread::sleep(Duration::from_millis(120));
        s.stop();
        let n = s.chunk_ms().len();
        assert!(n >= 2, "{n} chunks");
        assert!(s.speed(0.0, s.now_s()) > 0.0);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.chunk_ms().len(), n, "a chunk ran after stop");
    }
}
