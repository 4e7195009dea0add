//! The frame allocator's O(1) slot index against the linear-scan free
//! list it replaced: seeded mixes of `alloc`, `alloc_contiguous` and
//! `free` under every policy must hand out the same frames in the same
//! order.

use osiris_mem::{AllocPolicy, FrameAllocator, PhysMemory};
use osiris_sim::SimRng;

/// The linear-scan allocator: taking a given frame searches the whole
/// free list for it.
struct LinearScan {
    free: Vec<usize>,
    in_use: Vec<bool>,
    policy: AllocPolicy,
}

impl LinearScan {
    fn new(frames: usize, policy: AllocPolicy, seed: u64) -> Self {
        let mut free: Vec<usize> = (0..frames).collect();
        if matches!(
            policy,
            AllocPolicy::Scattered | AllocPolicy::BestEffortContiguous
        ) {
            SimRng::new(seed).shuffle(&mut free);
        }
        free.reverse();
        LinearScan {
            free,
            in_use: vec![false; frames],
            policy,
        }
    }

    fn alloc(&mut self, n: usize) -> Option<Vec<usize>> {
        if n == 0 {
            return Some(Vec::new());
        }
        if self.free.len() < n {
            return None;
        }
        if self.policy == AllocPolicy::BestEffortContiguous {
            if let Some(run) = self.find_contiguous_run(n) {
                for &f in &run {
                    self.take(f);
                }
                return Some(run);
            }
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let f = self.free.pop().expect("checked above");
            self.in_use[f] = true;
            out.push(f);
        }
        Some(out)
    }

    fn alloc_contiguous(&mut self, n: usize) -> Option<Vec<usize>> {
        if n == 0 {
            return Some(Vec::new());
        }
        let run = self.find_contiguous_run(n)?;
        for &f in &run {
            self.take(f);
        }
        Some(run)
    }

    fn free(&mut self, frames: &[usize]) {
        for &f in frames {
            assert!(self.in_use[f], "double free of frame {f}");
            self.in_use[f] = false;
            self.free.push(f);
        }
    }

    fn take(&mut self, frame: usize) {
        let pos = self
            .free
            .iter()
            .position(|&f| f == frame)
            .expect("frame not free");
        self.free.swap_remove(pos);
        self.in_use[frame] = true;
    }

    fn find_contiguous_run(&self, n: usize) -> Option<Vec<usize>> {
        let mut run_start = 0;
        let mut run_len = 0;
        for f in 0..self.in_use.len() {
            if self.in_use[f] {
                run_len = 0;
            } else {
                if run_len == 0 {
                    run_start = f;
                }
                run_len += 1;
                if run_len == n {
                    return Some((run_start..run_start + n).collect());
                }
            }
        }
        None
    }
}

#[test]
fn slot_index_allocates_like_the_linear_scan() {
    const FRAMES: usize = 256;
    let mem = PhysMemory::new(FRAMES * 4096, 4096);
    for policy in [
        AllocPolicy::Sequential,
        AllocPolicy::Scattered,
        AllocPolicy::BestEffortContiguous,
    ] {
        for seed in 0..8u64 {
            let mut fast = FrameAllocator::new(&mem, policy, seed);
            let mut reference = LinearScan::new(FRAMES, policy, seed);
            let mut ops = SimRng::new(seed ^ 0x00F4_A3E5);
            let mut held: Vec<Vec<usize>> = Vec::new();
            for step in 0..2_000 {
                let what = format!("{policy:?} seed {seed} step {step}");
                match ops.gen_range(3) {
                    0 => {
                        let n = ops.gen_range(12) as usize;
                        let got = fast.alloc(n);
                        assert_eq!(got, reference.alloc(n), "alloc({n}) {what}");
                        held.extend(got);
                    }
                    1 => {
                        let n = 1 + ops.gen_range(8) as usize;
                        let got = fast.alloc_contiguous(n);
                        assert_eq!(
                            got,
                            reference.alloc_contiguous(n),
                            "alloc_contiguous({n}) {what}"
                        );
                        held.extend(got);
                    }
                    _ if !held.is_empty() => {
                        let i = ops.gen_range(held.len() as u64) as usize;
                        let frames = held.swap_remove(i);
                        fast.free(&frames);
                        reference.free(&frames);
                    }
                    _ => {}
                }
                assert_eq!(fast.free_frames(), reference.free.len(), "{what}");
            }
        }
    }
}
