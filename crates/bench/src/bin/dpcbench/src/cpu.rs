//! Which CPU runs what, and how fast it is going.
//!
//! Left to the scheduler, this benchmark measures the hypervisor. On the
//! 2-vCPU microVM it was built on, waking a thread on the other vCPU costs
//! about 45 µs (1 000 round trips between two threads take 4 ms on one
//! vCPU and 45 ms across two), every request crosses four or five threads,
//! and whether the scheduler keeps those threads together or spreads them
//! flips between runs and in the middle of one: the same `lat` phase of
//! `churn` read a p50 of 128 µs before the first `sat` phase and 300 µs
//! after it. So the benchmark places its threads itself:
//!
//! * the **serving stack** — every thread a world starts — runs on one CPU,
//!   where a hop between its threads is a context switch and what is left
//!   of a request's time is the layers' own work;
//! * the **load generator** runs on that same CPU too, unless the workload
//!   asks for one of its own (`Workload::client_apart`). `l1_hot` does: its
//!   whole request is two thread hops, and on a shared CPU their cost
//!   follows the host's mood (run-level medians of 7.5 to 18 µs, same
//!   binary, same seed), while from a CPU of its own the client sees two
//!   cross-CPU wake-ups of steady cost.
//!
//! The second thing the host does is slow the CPU by a fifth to a half for
//! seconds at a time — a busy sibling hardware thread, most likely. A
//! [`SpeedGauge`] samples that between requests, and the run's estimator
//! (`run.rs`) scales each repetition by what it read.

use std::ffi::c_int;
use std::time::{Duration, Instant};

extern "C" {
    // From the C library every Rust program on Linux already links.
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// CPUs a mask of this many words covers; far above any sandbox.
const MASK_WORDS: usize = 16;

/// The CPUs the process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Move the calling thread to `cpu`; threads it spawns afterwards start
/// there too. Returns whether the kernel agreed.
fn move_to(cpu: usize) -> bool {
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, read only
    // by the call.
    unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) == 0 }
}

/// Where the two halves of the benchmark run. Threads inherit the CPU of
/// the thread that spawns them, so whoever builds part of the serving
/// stack does it [`as_server`](Placement::as_server).
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPUs the process was allowed before it pinned itself.
    pub allowed: usize,
    /// `(server, client)`; `None` when the kernel would not say or would
    /// not pin, and every thread floats.
    cpus: Option<(usize, usize)>,
}

impl Placement {
    /// The highest-numbered allowed CPU for the stack (the lowest takes
    /// most of the kernel's own work); for the clients the same one, or
    /// the lowest if they are to run apart and there is another.
    pub fn choose(client_apart: bool) -> Placement {
        let allowed = allowed_cpus();
        let cpus = allowed.last().map(|&server| {
            let client = if client_apart { allowed[0] } else { server };
            (server, client)
        });
        let placement = Placement {
            allowed: allowed.len(),
            cpus: cpus.filter(|&(server, _)| move_to(server)),
        };
        placement.as_client();
        placement
    }

    pub fn describe(&self) -> String {
        match self.cpus {
            Some((server, client)) => {
                format!("serving stack on cpu {server}, clients on cpu {client}")
            }
            None => "not pinned".to_owned(),
        }
    }

    pub fn shares_cpu(&self) -> bool {
        self.cpus.is_some_and(|(server, client)| server == client)
    }

    /// Put the calling thread, and threads it spawns from now on, on the
    /// serving stack's CPU.
    pub fn as_server(&self) {
        if let Some((server, _)) = self.cpus.filter(|(server, client)| server != client) {
            move_to(server);
        }
    }

    /// Put the calling thread, and threads it spawns from now on, on the
    /// load generator's CPU.
    pub fn as_client(&self) {
        if let Some((_, client)) = self.cpus.filter(|(server, client)| server != client) {
            move_to(client);
        }
    }

    /// Run `f` as part of the serving stack, then go back to being a
    /// client.
    pub fn on_server<T>(&self, f: impl FnOnce() -> T) -> T {
        self.as_server();
        let out = f();
        self.as_client();
        out
    }
}

/// The C library's `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const _: () = assert!(
    cfg!(all(target_os = "linux", target_pointer_width = "64")),
    "dpcbench calls the C library of 64-bit Linux directly"
);

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has used, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux) and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// How fast the CPU is going, sampled between requests: a fixed piece of
/// register-only arithmetic, timed on the thread's own CPU clock so that
/// being preempted does not count. The host slows the vCPU by a fifth to a
/// half for seconds at a time (a busy sibling hardware thread, most
/// likely); the samples say by how much.
pub struct SpeedGauge {
    /// Off when the clients have a CPU of their own: their speed says
    /// nothing about the serving stack's.
    on: bool,
    last: Instant,
    /// CPU nanoseconds each sample took.
    pub samples: Vec<f64>,
}

/// One sample per this long, so sampling costs about 2 % of the CPU.
const GAUGE_PERIOD: Duration = Duration::from_micros(2_500);
/// About 50 µs of work at the box's undisturbed speed.
const GAUGE_ITERATIONS: u32 = 34_000;

impl SpeedGauge {
    pub fn new(on: bool) -> SpeedGauge {
        SpeedGauge {
            on,
            last: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Take a sample if one is due. Call with no request in flight.
    pub fn tick(&mut self) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last) < GAUGE_PERIOD {
            return;
        }
        let t0 = thread_cpu_ns();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..GAUGE_ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        self.samples.push((thread_cpu_ns() - t0) as f64);
        self.last = Instant::now();
    }
}
