//! Measurement from outside the measured crates: call counters with
//! stride-sampled timing, the wrappers that put them around the
//! `JobSource` and `RateAllocator` traits, an in-memory span log written
//! out as a chrome trace, the calibration unit that rescales timed
//! sections to a fixed machine speed, and the process high-water mark.

use std::sync::OnceLock;
use std::time::Instant;

use tf_simcore::{AliveJob, JobSource, MachineConfig, RateAllocator, SourcedJob};

/// Every call is counted; one call in `STRIDE` is timed, on a fixed
/// stride, so a traced run stays close to the untraced one. The stride is
/// odd so it cannot lock onto power-of-two periods in the measured code:
/// the t-digest compresses every 512 pushes, and a stride of 16 timed
/// every one of those compressions and no cheap push between them.
pub const STRIDE: u64 = 17;

/// Median cost of one empty timed section (two clock reads), subtracted
/// from every timed call.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut v: Vec<u64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Calls to one layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub calls: u64,
    timed: u64,
    timed_ns: u64,
}

impl Probe {
    /// Run `f` as one call, timing it if it falls on the stride.
    #[inline]
    pub fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !self.calls.is_multiple_of(STRIDE) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(clock_overhead_ns());
        self.timed += 1;
        self.timed_ns += ns;
        out
    }

    /// Mean time of the timed calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed as f64
        }
    }

    /// Estimated time across all calls.
    pub fn total_ns(&self) -> f64 {
        self.ns_per_call() * self.calls as f64
    }

    pub fn absorb(&mut self, other: &Probe) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// A [`JobSource`] that counts and samples `next_job`.
pub struct ProbedSource<'a, S> {
    pub inner: S,
    pub probe: &'a mut Probe,
}

impl<S: JobSource> JobSource for ProbedSource<'_, S> {
    fn next_job(&mut self) -> Option<SourcedJob> {
        let inner = &mut self.inner;
        self.probe.call(|| inner.next_job())
    }
}

/// Allocator calls plus the alive-set length they were handed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocProbe {
    pub probe: Probe,
    pub alive_sum: u64,
}

impl AllocProbe {
    pub fn alive_mean(&self) -> f64 {
        if self.probe.calls == 0 {
            0.0
        } else {
            self.alive_sum as f64 / self.probe.calls as f64
        }
    }

    pub fn absorb(&mut self, other: &AllocProbe) {
        self.probe.absorb(&other.probe);
        self.alive_sum += other.alive_sum;
    }
}

/// A [`RateAllocator`] that forwards all five methods to `inner`,
/// counting and sampling `allocate`.
pub struct ProbedAlloc<'a> {
    pub inner: &'a mut dyn RateAllocator,
    pub probe: &'a mut AllocProbe,
}

impl RateAllocator for ProbedAlloc<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.probe.alive_sum += alive.len() as u64;
        let inner = &mut *self.inner;
        self.probe
            .probe
            .call(|| inner.allocate(now, alive, cfg, rates));
    }

    fn review_in(&self, now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Option<f64> {
        self.inner.review_in(now, alive, cfg)
    }

    fn continuous(&self) -> bool {
        self.inner.continuous()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// One completed span: `tid` groups a task's or request's spans on one
/// track, and `id` is the task or request they all belong to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: u64,
    pub id: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Spans kept in memory for the length of a run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a span that ran from `start` for `dur_s` seconds.
    pub fn push(&mut self, name: &'static str, tid: u64, id: u64, start: Instant, dur_s: f64) {
        self.spans.push(Span {
            name,
            tid,
            id,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur_s * 1e6,
        });
    }

    /// Write the spans as a chrome `trace_event` file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"tfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}{}\n",
                s.name,
                s.tid,
                s.start_us,
                s.dur_us,
                s.id,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` in `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds the calling thread has spent on a CPU. Unlike wall time it
/// leaves out the time the thread waits for a CPU, whether another thread
/// holds it or the host has taken the virtual CPU away (steal time).
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time of one [`calibrate`] unit on an unloaded core of the
/// reference machine (a 2-vCPU x86-64 cloud VM), in seconds.
pub const CALIBRATION_REF_S: f64 = 0.6e-3;

/// Run one calibration unit — a fixed piece of CPU work that no change
/// to the measured crates can touch (xorshift-filled sorts of a 4 KiB
/// array) — and return its CPU time in seconds ([`thread_cpu_s`]).
///
/// On a shared host a core's speed swings by up to 1.7× within seconds
/// (a busy hyperthread sibling, cache and memory-bus contention), and the
/// two cores of one machine swing independently. CPU time does not see
/// it: the thread is on its CPU the whole time, only slower. A unit run
/// on the same thread right after a measured section sees the same
/// speed, so [`normalize`] can take the speed out of the section's time.
pub fn calibrate() -> f64 {
    let t = thread_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v = [0f64; 512];
    let mut acc = 0u64;
    for _ in 0..40 {
        for e in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = (x >> 11) as f64;
        }
        v.sort_unstable_by(f64::total_cmp);
        acc = acc.wrapping_add(v[256].to_bits());
    }
    std::hint::black_box(acc);
    thread_cpu_s() - t
}

/// A section's CPU time `s` rescaled to the reference machine's speed,
/// given the CPU time `calibration_s` of the calibration unit run beside
/// it on the same thread.
pub fn normalize(s: f64, calibration_s: f64) -> f64 {
    s * CALIBRATION_REF_S / calibration_s
}

/// `VmHWM` of process `pid` (`"self"` for this one) in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
