//! `trace_event_count` sees the calling thread's own closed spans
//! before any export has flushed them.
//!
//! The observability mode and the trace buffer are process-global, so
//! this check lives in a test binary of its own.

use rp_obs::{ObsMode, SpanKind};

#[test]
fn a_span_closed_in_full_mode_counts_before_any_export() {
    rp_obs::set_mode(ObsMode::Full);
    rp_obs::clear_trace();
    {
        let _span = rp_obs::span(SpanKind::LpSolve);
    }
    let count = rp_obs::trace_event_count();
    rp_obs::set_mode(ObsMode::Off);
    assert!(count >= 1, "closed span not counted: {count}");
}
