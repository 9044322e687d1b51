// A fixed reference workload that measures how fast the host runs right
// now. The benchmark times passes of it after every experiment and reports
// the measurement phase's host time divided by the mean time of one pass,
// so most of a shared machine's drift in speed cancels out of that ratio.
#pragma once

namespace perfbench {

/// Host seconds for one pass (about 2-3 ms): builds and destroys an
/// ordered map of 1500 string keys to small vectors, four times. Like the
/// simulator, it is bound by allocation and pointer chasing. It uses no
/// code from the simulator, so a change to the simulator cannot move it.
double reference_pass_s();

}  // namespace perfbench
