//! Criterion benches for the observability hot path and the parallel
//! experiment engine (ISSUE 5).
//!
//! Two layers:
//!
//! * **Recorder micro-benches** — `record_span`/`incr` with `&str` names
//!   vs pre-interned `Sym` names (the `Sim::launch_on` fast path), through
//!   the same methods, plus the `hot_list`/`render_timeline` sinks on a populated
//!   recorder. That the warm interned path allocates nothing is asserted
//!   under `cargo test` (`tests/tests/launch_alloc.rs`).
//! * **Registry end-to-end** — a four-experiment slice of the paper
//!   registry through `run_ids_parallel` at jobs=1 vs jobs=4. On a
//!   multi-core host the jobs=4 number is the wall-clock win; the
//!   output bytes are identical either way (see
//!   `tests/tests/golden_determinism.rs`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use hetsim::obs::{Recorder, SpanKind};

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

const SPANS_PER_ITER: usize = 1024;

/// String names: every span/metric name arrives as `&str` and is hashed
/// (never allocated, once seen) per event.
fn bench_string_path(c: &mut Criterion) {
    let rec = Recorder::enabled();
    c.bench_function("obs/record_span_str_1k", |b| {
        b.iter(|| {
            rec.reset();
            for i in 0..SPANS_PER_ITER {
                let t = i as f64;
                rec.record_span("spmv", SpanKind::Kernel, "gpu0.s0", t, t + 1.0);
                rec.incr("sim.flops", 1.0e9);
            }
        })
    });
}

/// The `Sim::launch_on` fast path: names interned once, `Sym`s reused.
fn bench_interned_path(c: &mut Criterion) {
    let rec = Recorder::enabled();
    let name = rec.intern("spmv");
    let track = rec.intern("gpu0.s0");
    let flops = rec.intern("sim.flops");
    c.bench_function("obs/record_span_sym_1k", |b| {
        b.iter(|| {
            rec.reset();
            for i in 0..SPANS_PER_ITER {
                let t = i as f64;
                rec.record_span(name, SpanKind::Kernel, track, t, t + 1.0);
                rec.incr(flops, 1.0e9);
            }
        })
    });
}

/// The render sinks over a realistically-populated recorder.
fn bench_sinks(c: &mut Criterion) {
    let rec = Recorder::enabled();
    for i in 0..512 {
        let t = i as f64;
        let name = ["spmv", "axpy", "halo", "fft"][i % 4];
        let track = ["gpu0.s0", "gpu0.s1", "gpu0.h2d", "cpu"][i % 4];
        rec.record_span(name, SpanKind::Kernel, track, t, t + 1.5);
        rec.incr(name, 1.0);
    }
    c.bench_function("obs/hot_list_512", |b| b.iter(|| rec.hot_list()));
    c.bench_function("obs/render_timeline_512", |b| {
        b.iter(|| rec.render_timeline(100))
    });
    c.bench_function("obs/to_jsonl_512", |b| b.iter(|| rec.to_jsonl()));
}

/// Four cheap experiments end-to-end through the engine, serial vs the
/// work-stealing pool. Byte-identical output, different wall-clock.
fn bench_registry(c: &mut Criterion) {
    const IDS: &[&str] = &["table1", "machines", "fig8", "pipeline-overlap"];
    let reg = bench::registry();
    c.bench_function("engine/four_exps_jobs1", |b| {
        b.iter(|| {
            let runs = reg.run_ids_parallel(IDS, 1);
            assert!(runs.iter().all(|r| r.outcome.is_ok()));
        })
    });
    c.bench_function("engine/four_exps_jobs4", |b| {
        b.iter(|| {
            let runs = reg.run_ids_parallel(IDS, 4);
            assert!(runs.iter().all(|r| r.outcome.is_ok()));
        })
    });
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_string_path, bench_interned_path, bench_sinks, bench_registry
}
criterion_main!(benches);
