//! Context switches per request with every testbed thread on one CPU.
//!
//! A page-tier hit crosses two threads (client → proxy loop → client),
//! an assembled page four hops (client → proxy loop → origin loop →
//! proxy loop → client). On one shared CPU the floor is one switch per
//! hop: 2 per hit, 4 per assembled request. A wake issued while its
//! waker still holds the lock the wakee needs adds two switches per wake
//! (the wakee preempts the waker, then blocks on that lock), which is
//! what this guard catches: it asserts at most 3 switches per hit and 6
//! per assembled request. A wire that woke under its locks read about 5.4
//! and 10.4.
//!
//! The test pins its own thread to one CPU before it builds the testbed,
//! so every thread the testbed spawns inherits the pin, and it counts the
//! switches of every thread of the process from `/proc/self/task`. It is
//! `#[ignore]`d because it needs the process to itself (run it with
//! `cargo test -p dpc-proxy --test wake_switches -- --ignored`); a kernel
//! that refuses the pin fails it.

#![cfg(target_os = "linux")]

use std::fs;

use dpc_appserver::apps::paper_site::PaperSiteParams;
use dpc_proxy::testbed::{Testbed, TestbedConfig};
use dpc_proxy::ProxyMode;

/// Requests counted per configuration, one at a time on one connection.
const REQUESTS: usize = 2_000;
/// Requests before counting starts: cold fragments, the first tier fill.
const WARM_UP: usize = 100;
const TARGET: &str = "/paper/page.jsp?p=3";

mod affinity {
    use std::io;
    use std::os::raw::c_int;

    /// Kernel `cpu_set_t`: 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    }

    /// Pin the calling thread to the first CPU it may run on and return
    /// that CPU. Threads it spawns afterwards inherit the pin.
    pub fn pin_to_one_cpu() -> io::Result<usize> {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let cpu = (0..1024)
            .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .ok_or_else(|| io::Error::other("empty affinity mask"))?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        if unsafe { sched_setaffinity(0, size, &one) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let mut now: CpuSet = [0; 16];
        if unsafe { sched_getaffinity(0, size, &mut now) } != 0 {
            return Err(io::Error::last_os_error());
        }
        if now != one {
            return Err(io::Error::other(format!("pin to CPU {cpu} did not take")));
        }
        Ok(cpu)
    }
}

/// Voluntary plus involuntary context switches of every live thread of
/// this process.
fn process_switches() -> u64 {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let status = task.expect("task entry").path().join("status");
        // A thread that exited since the directory was read has no status.
        let Ok(text) = fs::read_to_string(status) else {
            continue;
        };
        for line in text.lines() {
            if let Some(count) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += count.trim().parse::<u64>().expect("switch count");
            }
        }
    }
    total
}

/// Switches per request over `REQUESTS` GETs of one page, every one
/// answered with `x_cache`.
fn switches_per_request(tier: bool, x_cache: &str) -> f64 {
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: PaperSiteParams::default(),
        l1_budget_bytes: if tier { 1 << 20 } else { 0 },
        ..TestbedConfig::default()
    });
    for _ in 0..WARM_UP {
        assert_eq!(tb.get(TARGET, None).status.0, 200);
    }
    let before = process_switches();
    for i in 0..REQUESTS {
        let resp = tb.get(TARGET, None);
        assert_eq!(resp.status.0, 200, "request {i}");
        assert_eq!(resp.headers.get("X-Cache"), Some(x_cache), "request {i}");
    }
    (process_switches() - before) as f64 / REQUESTS as f64
}

#[test]
#[ignore = "pins the process to one CPU and counts all its threads' switches"]
fn one_cpu_requests_take_about_one_switch_per_hop() {
    let cpu = affinity::pin_to_one_cpu()
        .unwrap_or_else(|e| panic!("the kernel refused to pin the test to one CPU: {e}"));
    let hit = switches_per_request(true, "dpc-l2");
    let assembled = switches_per_request(false, "dpc-assembled");
    eprintln!("CPU {cpu}: {hit:.2} switches per page-tier hit, {assembled:.2} per assembled page");
    assert!(
        hit <= 3.0,
        "{hit:.2} switches per page-tier hit (floor 2, bound 3.0)"
    );
    assert!(
        assembled <= 6.0,
        "{assembled:.2} switches per assembled page (floor 4, bound 6.0)"
    );
}
