/* The CPU clock of one marked thread, readable from any other thread. It
   excludes time the thread spent waiting for a CPU, including time the
   hypervisor gave its virtual CPU to another guest. */

#include <pthread.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

static pthread_t marked;
static int have_marked = 0;

value perfbench_mark_thread(value unit)
{
  (void)unit;
  marked = pthread_self();
  __atomic_store_n(&have_marked, 1, __ATOMIC_RELEASE);
  return Val_unit;
}

value perfbench_marked_cpu(value unit)
{
  clockid_t clock;
  struct timespec ts;
  (void)unit;
  if (!__atomic_load_n(&have_marked, __ATOMIC_ACQUIRE)) caml_failwith("no marked thread");
  if (pthread_getcpuclockid(marked, &clock) != 0 || clock_gettime(clock, &ts) != 0)
    caml_failwith("cannot read the marked thread's CPU clock");
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
