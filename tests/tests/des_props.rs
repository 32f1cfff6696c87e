//! Property-based tests for the unified `hetsim::des` event kernel: the
//! calendar queue is a faithful priority queue under any interleaving,
//! simultaneous events keep insertion order, and the §4.7 GPU pool served
//! on `ClusterSim` (`icoe::cluster::simulate_pool`) is *bitwise*
//! identical to the original single-pool scan loop.

use hetsim::des::{EventKey, EventQueue};
use icoe::cluster::{simulate_pool, ClusterMetrics};
use proptest::prelude::*;
use sched::policy::{ClusterView, JobInfo, QueuedJob, RunningJob, SchedPolicy};
use sched::{EasyBackfill, Fcfs, GpuBinPack, Job, Sjf, SjfQuota, SlaUrgency};

/// One queue operation for the interleaving property, decoded from a
/// plain `(selector, time-knob)` tuple (the proptest shim has no
/// `prop_oneof`): selectors 0–5 push a clustered finite time — a small
/// value set, so collisions exercise the same-epoch and same-time
/// paths — 6 pushes NaN, and 7–9 pop.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(f64),
    Pop,
}

fn decode_op(sel: u8, knob: i32) -> Op {
    match sel {
        0..=5 => Op::Push(knob as f64 * 0.125),
        6 => Op::Push(f64::NAN),
        _ => Op::Pop,
    }
}

/// Pending `(key, payload)` pairs sorted descending by key, so the
/// expected next pop is the last element.
#[derive(Default)]
struct SortedModel(Vec<(EventKey, u32)>);

impl SortedModel {
    fn push(&mut self, key: EventKey, ev: u32) {
        let at = self.0.partition_point(|&(k, _)| k > key);
        self.0.insert(at, (key, ev));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary interleaved push/pop, every pop returns the
    /// globally minimal `(time, seq)` key among the pending events —
    /// checked against a plain sorted-Vec reference model.
    #[test]
    fn pops_are_globally_time_seq_ordered_under_interleaving(
        raw_ops in prop::collection::vec((0u8..10, -16i32..160), 1..400),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut payload = 0u32;
        for (sel, knob) in raw_ops {
            match decode_op(sel, knob) {
                Op::Push(t) => {
                    let key = q.push(t, payload);
                    // The queue normalises NaN to positive NaN; mirror it.
                    prop_assert!(key.time.total_cmp(&key.time).is_eq());
                    model.push(key, payload);
                    payload += 1;
                }
                Op::Pop => prop_assert_eq!(q.pop(), model.0.pop()),
            }
            prop_assert_eq!(q.len(), model.0.len());
        }
        // Drain: the remainder comes out fully sorted.
        let mut last: Option<EventKey> = None;
        while let Some((key, _)) = q.pop() {
            if let Some(prev) = last {
                prop_assert!(prev < key, "{prev:?} !< {key:?}");
            }
            last = Some(key);
        }
        prop_assert!(q.is_empty());
    }

    /// Simultaneous events pop in insertion order, including batches
    /// too big for width narrowing to split (more than 64 events at one
    /// instant), which are binary-inserted into the sorted head bucket.
    #[test]
    fn same_time_events_preserve_insertion_order(
        sizes in prop::collection::vec(1usize..90, 1..6),
        t0 in -3.0f64..3.0,
    ) {
        let mut q: EventQueue<(usize, usize)> = EventQueue::new();
        for (batch, &n) in sizes.iter().enumerate() {
            let t = t0 + batch as f64; // one instant per batch
            for i in 0..n {
                q.push(t, (batch, i));
            }
        }
        for (batch, &n) in sizes.iter().enumerate() {
            for i in 0..n {
                let (key, ev) = q.pop().expect("all batches pending");
                prop_assert_eq!(ev, (batch, i));
                prop_assert!((key.time - (t0 + batch as f64)).abs() < 1e-12);
            }
        }
        prop_assert!(q.is_empty());
    }
}

/// SplitMix64: the shuffles and interleavings of the warm-queue property
/// depend on the drawn seed and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Times that land in the sorted head bucket, or around it: NaN, the
/// infinities, and finite values whose epoch saturates the `i64` cast.
const HOSTILE: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The node-step shape on a warm queue reused across rounds (its
    /// width already narrowed by the first): each round pushes thousands
    /// of distinct times inside a 5 µs window in shuffled order,
    /// interleaved with pops and with pushes aimed at the sorted head —
    /// equal to its minimum, in the past, NaN, ±∞, ±1e300. Every pop must
    /// match the sorted reference model.
    #[test]
    fn warm_jittered_rounds_pop_in_exact_order(
        seed in 0u64..u64::MAX,
        rounds in 2usize..5,
        ranks in 1000usize..3000,
    ) {
        let mut rng = SplitMix(seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut payload = 0u32;
        for round in 0..rounds {
            let base = 1.0 + round as f64 * 1e-3;
            let mut times: Vec<f64> = (0..ranks)
                .map(|k| base + 5e-6 * (k as f64 + 0.5) / ranks as f64)
                .collect();
            for i in (1..ranks).rev() {
                times.swap(i, rng.below(i + 1));
            }
            for t in times {
                let mut pending = vec![t];
                match rng.below(32) {
                    0 => pending.push(q.peek_key().map_or(base, |k| k.time)),
                    1 => pending.push(q.peek_key().map_or(base, |k| k.time) - 1e-7),
                    2 => pending.push(base - 1.0),
                    3 => pending.push(HOSTILE[rng.below(HOSTILE.len())]),
                    _ => {}
                }
                for t in pending {
                    let key = q.push(t, payload);
                    model.push(key, payload);
                    payload += 1;
                }
                if rng.below(8) == 0 {
                    let got = q.pop();
                    prop_assert_eq!(got, model.0.pop());
                }
                prop_assert_eq!(q.len(), model.0.len());
            }
            // Drain the round, as a node step does.
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), model.0.pop());
            }
            prop_assert!(model.0.is_empty(), "queue drained early");
        }
    }
}

/// Times of one epoch each at the default 1 s width, so a bucket drawn
/// from one list mixes both zeros, negatives, the infinities, NaN and
/// (drawn twice) equal-time `seq` ties: epoch 0, epoch -1, the terminal
/// epoch (where NaN, `+inf` and a saturating 1e300 radix), and the first
/// epoch.
const EPOCH_ZERO: [f64; 4] = [-0.0, 0.0, 0.25, 0.5];
const EPOCH_MINUS_ONE: [f64; 3] = [-1.0, -0.75, -0.5];
const TERMINAL: [f64; 3] = [f64::INFINITY, f64::NAN, 1e300];
const FIRST: [f64; 2] = [f64::NEG_INFINITY, -1e300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Promotion ranks a bucket of 2 to 8 records and sorts a larger one.
    /// For every bucket size from 1 to 9, a queue holds that many records
    /// in each of seven epochs — the first, -1, 0, three later finite ones
    /// and the terminal one (past the window, so it is promoted from the
    /// overflow) — pushed in shuffled order, so buckets also form from a
    /// head sent back to the ring. Every pop must match the sorted
    /// reference model, payloads included.
    #[test]
    fn promoted_buckets_of_every_size_match_the_sorted_model(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix(seed);
        for size in 1..=9usize {
            let mut times = Vec::new();
            for _ in 0..size {
                times.push(FIRST[rng.below(FIRST.len())]);
                times.push(EPOCH_ZERO[rng.below(EPOCH_ZERO.len())]);
                times.push(EPOCH_MINUS_ONE[rng.below(EPOCH_MINUS_ONE.len())]);
                times.push(TERMINAL[rng.below(TERMINAL.len())]);
                for epoch in 1..=3 {
                    times.push(f64::from(epoch) + [0.0, 0.5][rng.below(2)]);
                }
            }
            for i in (1..times.len()).rev() {
                times.swap(i, rng.below(i + 1));
            }
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model = SortedModel::default();
            let mut payload = 0u32;
            for t in times {
                push_both(&mut q, &mut model, &mut payload, t);
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), model.0.pop(), "bucket size {}", size);
            }
            prop_assert!(model.0.is_empty(), "queue drained early");
        }
    }
}

/// Pushes `t` on both the queue and the model.
fn push_both(q: &mut EventQueue<u32>, model: &mut SortedModel, payload: &mut u32, t: f64) {
    let key = q.push(t, *payload);
    model.push(key, *payload);
    *payload += 1;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ring calendar's window moves under every kind of push: near
    /// the clock; far past the window (into the overflow) in ladders of
    /// records 64 s apart, so records a window length apart meet when the
    /// overflow is re-filed and pushes slide the window up to overflow
    /// epochs; below a window that can only slide back by spilling its
    /// latest buckets to the overflow; bursts of distinct times that
    /// narrow the width while the overflow holds records; NaN, ±∞ and
    /// ±1e300. Pops come one at a time, in long runs that advance the
    /// window through the overflow, and from a handler that schedules
    /// follow-ups near and far, with `clear` in between. Every pop must
    /// match the sorted reference model.
    #[test]
    fn ring_window_overflow_and_narrowing_match_the_sorted_model(
        raw_ops in prop::collection::vec((0u8..16, 0u32..1000), 1..300),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut payload = 0u32;
        let mut now = 0.0f64;
        for (sel, knob) in raw_ops {
            let k = f64::from(knob);
            let pops = match sel {
                0..=3 => {
                    // A few events within the next 16 s: enough pending
                    // to grow the ring past its first 64 slots.
                    for i in 0..1 + knob % 4 {
                        let t = now + k * 0.01 + f64::from(i) * 1.5;
                        push_both(&mut q, &mut model, &mut payload, t);
                    }
                    0
                }
                4 | 5 => {
                    // A ladder of rungs exactly 64 s apart, the first one
                    // (at the default width) just past a 64-slot window.
                    for rung in 1..=1 + knob % 8 {
                        let t = now + 64.0 * f64::from(rung);
                        push_both(&mut q, &mut model, &mut payload, t);
                    }
                    0
                }
                6 => {
                    push_both(&mut q, &mut model, &mut payload, now - 1.0 - k);
                    0
                }
                7 if knob < 100 => {
                    // More distinct times inside 1 µs than a head takes.
                    let n = 65 + knob;
                    for i in 0..n {
                        let t = now + k * 1e-3 + 1e-6 * f64::from(i) / f64::from(n);
                        push_both(&mut q, &mut model, &mut payload, t);
                    }
                    0
                }
                7 => {
                    push_both(&mut q, &mut model, &mut payload, now + 1e6 * k);
                    0
                }
                8 => {
                    let t = HOSTILE[knob as usize % HOSTILE.len()];
                    push_both(&mut q, &mut model, &mut payload, t);
                    0
                }
                9..=12 => 1 + knob % 40,
                13 | 14 => 1 + knob,
                _ if knob % 8 == 0 => {
                    q.clear();
                    model.0.clear();
                    0
                }
                _ => {
                    // An event handler: pop one, schedule a follow-up in
                    // the next second and a ladder from the popped time.
                    let got = q.pop();
                    prop_assert_eq!(got, model.0.pop());
                    if let Some((key, _)) = got {
                        if key.time.is_finite() {
                            now = key.time;
                        }
                    }
                    push_both(&mut q, &mut model, &mut payload, now + 1.0 + k * 1e-3);
                    for rung in 1..=1 + knob % 4 {
                        let t = now + 64.0 * f64::from(rung);
                        push_both(&mut q, &mut model, &mut payload, t);
                    }
                    0
                }
            };
            for _ in 0..pops {
                let got = q.pop();
                prop_assert_eq!(got, model.0.pop());
                if let Some((key, _)) = got {
                    if key.time.is_finite() {
                        now = key.time;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.0.len());
            prop_assert_eq!(q.peek_key(), model.0.last().map(|&(k, _)| k));
        }
        // Drain: the window advances through whatever the overflow holds.
        while let Some(got) = q.pop() {
            prop_assert_eq!(Some(got), model.0.pop());
        }
        prop_assert!(model.0.is_empty(), "queue drained early");
    }
}

// ---------------------------------------------------------------- conformance

/// What the reference loop reports, plus every job's wait in launch
/// order.
struct Metrics {
    makespan: f64,
    mean_wait: f64,
    max_wait: f64,
    utilization: f64,
    completed: usize,
    waits: Vec<f64>,
}

/// The original single-pool scheduler loop, copied verbatim (next-event
/// time from an O(n) min-fold over `running` plus an arrival cursor, no
/// event queue, a 1e-12 completion sweep). The pool adapter must match it
/// bitwise.
fn reference_simulate(jobs: &[Job], gpus: usize, policy: impl SchedPolicy) -> Metrics {
    assert!(gpus >= 1);
    assert!(
        jobs.iter().all(|j| j.gpus <= gpus),
        "job larger than the pool"
    );
    let mut arrivals: Vec<Job> = jobs.to_vec();
    arrivals.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    let mut queue: Vec<QueuedJob> = Vec::new();
    let mut running: Vec<RunningJob> = Vec::new();
    let mut free = gpus;
    let mut t = 0.0f64;
    let mut next_arrival = 0usize;
    let mut waits: Vec<f64> = Vec::new();
    let mut busy_gpu_seconds = 0.0;
    let n = arrivals.len();

    while waits.len() < n {
        loop {
            let view = ClusterView {
                now: t,
                queue: &queue,
                running: &running,
                free_gpus: free,
                total_gpus: gpus,
                nodes: &[],
                capacity: None,
            };
            let Some(d) = policy.select(&view) else { break };
            policy.on_select(&mut queue, d.queue_idx);
            let q = queue.remove(d.queue_idx);
            free -= q.job.gpus;
            running.push(RunningJob {
                finish: t + q.job.duration,
                gpus: q.job.gpus,
                cores: q.job.cores,
            });
            busy_gpu_seconds += q.job.duration * q.job.gpus as f64;
            waits.push(t - q.job.arrival);
        }
        let t_arr = arrivals.get(next_arrival).map(|j| j.arrival);
        let t_done = running
            .iter()
            .map(|r| r.finish)
            .fold(f64::INFINITY, f64::min);
        let t_next = match t_arr {
            Some(a) => a.min(t_done),
            None => t_done,
        };
        if !t_next.is_finite() {
            break;
        }
        t = t_next;
        running.retain(|r| {
            if r.finish <= t + 1e-12 {
                free += r.gpus;
                false
            } else {
                true
            }
        });
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= t + 1e-12 {
            queue.push(QueuedJob {
                job: JobInfo::from_job(&arrivals[next_arrival]),
                bypassed: 0,
            });
            next_arrival += 1;
        }
    }

    let makespan = t.max(running.iter().map(|r| r.finish).fold(t, f64::max));
    let mean_wait = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
    let max_wait = waits.iter().copied().fold(0.0, f64::max);
    Metrics {
        makespan,
        mean_wait,
        max_wait,
        utilization: busy_gpu_seconds / (gpus as f64 * makespan.max(1e-12)),
        completed: waits.len(),
        waits,
    }
}

/// Jobs with arrival gaps `gaps`, where every gap under 2 s is forced to
/// zero so about a quarter of the arrivals tie exactly with their
/// predecessor.
fn jobs_from(durations: &[f64], gaps: &[f64], widths: &[usize], gpus: usize) -> Vec<Job> {
    let mut t = 0.0;
    durations
        .iter()
        .zip(gaps)
        .zip(widths)
        .enumerate()
        .map(|(id, ((&d, &gap), &w))| {
            t += if gap < 2.0 { 0.0 } else { gap };
            Job {
                id,
                arrival: t,
                duration: d,
                gpus: 1 + w % gpus,
            }
        })
        .collect()
}

/// Bitwise equality of the pool adapter with the reference. `mean_wait`
/// is checked against the reference's waits summed in sorted order, the
/// order `ClusterSim` sums them in; the reference's own launch-order sum
/// may differ from that only by rounding.
fn assert_bitwise_eq(got: &ClusterMetrics, want: &Metrics, ctx: &str) {
    assert_eq!(got.completed, want.completed, "{ctx}: completed");
    let mut sorted = want.waits.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let sorted_mean = sorted.iter().sum::<f64>() / sorted.len().max(1) as f64;
    assert!(
        (want.mean_wait - sorted_mean).abs() <= 1e-12 * sorted_mean.abs().max(1.0),
        "{ctx}: launch-order mean {} vs sorted mean {sorted_mean}",
        want.mean_wait
    );
    for (name, x, y) in [
        ("makespan", got.makespan, want.makespan),
        ("max_wait", got.max_wait, want.max_wait),
        ("utilization", got.utilization, want.utilization),
        ("mean_wait", got.mean_wait, sorted_mean),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: {name} {x} != {y} (bitwise)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pool adapter reproduces the scan loop bitwise for every
    /// built-in policy on random workloads, exact arrival ties included.
    #[test]
    fn pool_adapter_matches_the_scan_loop_bitwise(
        durations in prop::collection::vec(0.25f64..60.0, 1..40),
        gaps in prop::collection::vec(0.0f64..8.0, 40),
        widths in prop::collection::vec(0usize..8, 40),
    ) {
        let gpus = 8;
        let jobs = jobs_from(&durations, &gaps, &widths, gpus);
        let policies: Vec<Box<dyn SchedPolicy>> = vec![
            Box::new(Fcfs),
            Box::new(Sjf),
            Box::new(SjfQuota { quota: 4 }),
            Box::new(EasyBackfill),
            Box::new(GpuBinPack),
            Box::new(SlaUrgency),
        ];
        for p in policies {
            let name = p.name().to_string();
            let got = simulate_pool(&jobs, gpus, p.as_ref());
            let want = reference_simulate(&jobs, gpus, p.as_ref());
            assert_bitwise_eq(&got, &want, &name);
        }
    }
}
