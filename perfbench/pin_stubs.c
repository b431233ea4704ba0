/* Moves the calling thread onto one CPU, for calibrate.ml. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_pin_to_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
