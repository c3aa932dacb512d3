/* Monotonic nanosecond clock for the benchmark's timers and spans.
   Unix.gettimeofday only resolves microseconds, which is coarser than
   one simulated delivery. */

#include <time.h>
#include <caml/mlvalues.h>

intnat bench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value bench_now_ns_byte(value unit)
{
  return Val_long(bench_now_ns(unit));
}
