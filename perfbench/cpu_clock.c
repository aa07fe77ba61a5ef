/* The process's CPU clock (user plus system time of every thread) at
   nanosecond resolution, which Sys.time (getrusage, microseconds) lacks. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_cpu_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return -1.0;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_cpu_seconds_byte(value unit)
{
  return caml_copy_double(perfbench_cpu_seconds(unit));
}
