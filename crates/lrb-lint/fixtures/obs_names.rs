//! Fixture: inline metric-name literals handed to Recorder calls.
//! Linted under the virtual path `crates/lrb-sim/src/fixture.rs`.

use lrb_obs::{names, Recorder};

pub fn emit<R: Recorder>(rec: &R) {
    rec.incr("sim.epochz", 1);
    rec.incr(names::SIM_EPOCHS, 1);
}

pub fn trace<R: Recorder>(rec: &R) {
    let _g = rec.time("sim.runz");
    let _s = rec.span_with("sim.stepz", 1, false);
    let _t = rec.span_with(names::SIM_EPOCH, 2, false);
    rec.instant(names::SIM_RUN, 0, false);
}
