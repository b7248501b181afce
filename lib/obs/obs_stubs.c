/* Monotonic clock for Obs.now: CLOCK_MONOTONIC never jumps with
   wall-clock adjustments, so span durations and latency samples are
   never negative. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double paradigm_obs_monotonic_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value paradigm_obs_monotonic(value unit)
{
  return caml_copy_double(paradigm_obs_monotonic_unboxed(unit));
}
