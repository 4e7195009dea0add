//! Steady-state heap allocations per message on the datapath.
//!
//! A counting global allocator wraps `System`. Each shape runs twice, at
//! `L` and `2L` messages per source; set-up, teardown and the snapshot
//! cost the same in both runs, so `(allocs(2L) - allocs(L)) / L` is what
//! one more message costs. The counts are deterministic (fixed seeds,
//! one thread), so the budgets below are exact.
//!
//! This file is its own test binary with a single `#[test]`: no other
//! test thread allocates while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use osiris::atm::sar::ReassemblyMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::Scenario;

/// `System`, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One shape: a scenario, its configuration at `messages` per source,
/// `L`, and the most allocations `L` more messages may cost.
struct Shape {
    name: &'static str,
    scenario: Scenario,
    cfg: fn(u64) -> TestbedConfig,
    len: u64,
    budget: u64,
}

/// Allocations `L` more messages per source cost in steady state.
fn extra_allocs(shape: &Shape) -> u64 {
    let run = |messages: u64| {
        let cfg = (shape.cfg)(messages);
        allocs_during(|| {
            let out = shape.scenario.run(cfg);
            assert!(out.done, "{} did not complete", shape.name);
            assert_eq!(out.verify_failures, 0, "{}: payload corruption", shape.name);
        })
    };
    // One uncounted run first, so lazily built statics are paid once.
    run(shape.len);
    let (short, long) = (run(shape.len), run(2 * shape.len));
    long.saturating_sub(short)
}

fn base(messages: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.messages = messages;
    cfg.warmup = 0;
    cfg
}

/// Table 1: 1-byte UDP/IP round trips, the client writing each message.
fn pair(messages: u64) -> TestbedConfig {
    let mut cfg = base(messages);
    cfg.msg_size = 1;
    cfg.touch = TouchMode::WritePerMessage;
    cfg
}

/// Figure 2: 16 KB UDP/IP PDUs from the board's own generator.
fn rx_bench(messages: u64) -> TestbedConfig {
    let mut cfg = base(messages);
    cfg.msg_size = 16 * 1024;
    cfg
}

/// Two lossless 8 KB streams through the switch, four-way striped.
fn many_pairs(messages: u64) -> TestbedConfig {
    let mut cfg = base(messages);
    cfg.msg_size = 8 * 1024;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg
}

/// Four reliable senders into one receiver, lossless, four-way striped.
fn incast(messages: u64) -> TestbedConfig {
    let mut cfg = base(messages);
    cfg.msg_size = 1024;
    cfg.reliable = true;
    cfg.window = 4;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg
}

/// The budgets are the counts the datapath reaches, exactly. What they
/// still allow is growth, not per-message work: the event queue's buckets
/// (pair, rx_bench, many_pairs), and in the incast the selective-repeat
/// sender's deferred queue, which holds every datagram the window has
/// not yet admitted. Before the datapath stopped allocating, the same
/// runs cost 13 201, 1 221, 3 288 and 16 905 allocations.
#[test]
fn steady_state_allocations_stay_within_budget() {
    let shapes = [
        Shape {
            name: "pair",
            scenario: Scenario::Pair,
            cfg: pair,
            len: 200,
            budget: 1,
        },
        Shape {
            name: "rx_bench",
            scenario: Scenario::RxBench,
            cfg: rx_bench,
            len: 40,
            budget: 1,
        },
        Shape {
            name: "many_pairs",
            scenario: Scenario::ManyPairs { pairs: 2 },
            cfg: many_pairs,
            len: 40,
            budget: 8,
        },
        Shape {
            name: "incast",
            scenario: Scenario::Incast { senders: 4 },
            cfg: incast,
            len: 40,
            budget: 66,
        },
    ];
    let mut over = Vec::new();
    for shape in &shapes {
        let got = extra_allocs(shape);
        eprintln!(
            "{}: {got} allocations for {} more messages per source (budget {})",
            shape.name, shape.len, shape.budget
        );
        if got > shape.budget {
            over.push(format!("{} {got} > {}", shape.name, shape.budget));
        }
    }
    assert!(over.is_empty(), "allocation budget exceeded: {over:?}");
}
