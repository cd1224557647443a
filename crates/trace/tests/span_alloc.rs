//! The span hot path must not allocate: opening a root, entering its
//! context, recording nested child spans, and finishing the root are all
//! atomic stores into pre-allocated rings. This pins that with a per-thread
//! counting allocator — if someone boxes a span, formats a label, or lets
//! the recorder grow in steady state, the count moves and this fails.

use dpc_net::Clock;
use dpc_trace::{enter_ctx, Layer, SpanStatus, TraceConfig, Tracer};

#[path = "../../../tests/support/thread_alloc.rs"]
mod thread_alloc;

#[test]
fn span_recording_does_not_allocate() {
    let (clock, _handle) = Clock::virtual_clock();
    // No retention: retaining copies spans out of the rings (that path is
    // allowed to allocate — it runs once per kept trace, off the serve
    // path). The virtual clock never moves, so only the sampler could
    // retain, and it defaults off.
    let tracer = Tracer::from_config(TraceConfig::default(), clock);

    // Warm-up: ring shards, the thread-local shard assignment, and lock
    // internals are one-time costs paid here, outside the window.
    for _ in 0..8 {
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        {
            let _enter = enter_ctx(Some(ctx));
            let _sp = tracer.span(Layer::TierL2);
        }
        tracer.finish_root(ctx, SpanStatus::Ok);
    }

    let before = thread_alloc::allocs();
    for round in 0..1000u64 {
        let ctx = tracer.begin_request(Layer::Http, None).unwrap();
        {
            let _enter = enter_ctx(Some(ctx));
            let mut probe = tracer.span(Layer::TierL2);
            probe.set_detail(round);
            probe.set_status(SpanStatus::Miss);
            drop(probe);
            let mut flight = tracer.span(Layer::Flight);
            flight.set_status(SpanStatus::Leader);
            {
                let mut asm = tracer.span(Layer::Assembly);
                asm.set_detail(3);
            }
            drop(flight);
            // A cancelled probe (the non-event path) is free too.
            let mut quiet = tracer.span(Layer::Directory);
            quiet.cancel();
        }
        tracer.finish_root(ctx, SpanStatus::Ok);
    }
    let during = thread_alloc::allocs() - before;
    assert_eq!(
        during, 0,
        "span hot path allocated {during} times in 1000 traced requests"
    );
}
