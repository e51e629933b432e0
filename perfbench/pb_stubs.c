/* Monotonic clock, resource usage and CPU affinity for the benchmark:
   OCaml's Unix module offers none of CLOCK_MONOTONIC, getrusage and
   sched_setaffinity. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>

/* Seconds since an arbitrary fixed point, never going backwards. */
value pb_monotonic_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* Peak resident set size in KiB: of this process (who = 0), or of the
   largest child reaped so far (who = 1). */
value pb_maxrss_kb(value who)
{
  struct rusage ru;
  getrusage(Int_val(who) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}

/* The CPUs this process may run on, as a list of CPU numbers. */
value pb_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  (void)unit;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(list);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
    if (CPU_ISSET(cpu, &set)) {
      cell = caml_alloc(2, 0);
      Store_field(cell, 0, Val_int(cpu));
      Store_field(cell, 1, list);
      list = cell;
    }
  CAMLreturn(list);
}

/* Restrict this process, and the children it spawns from now on, to
   the CPUs in [cpus]. */
value pb_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (; cpus != Val_emptylist; cpus = Field(cpus, 1))
    CPU_SET(Int_val(Field(cpus, 0)), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}
