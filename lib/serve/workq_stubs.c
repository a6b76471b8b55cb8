/* A timed wait on a stdlib Condition.t, which OCaml 5.1 does not offer:
   wait on [cond] with [mut] held for at most [timeout_s] seconds, measured
   on CLOCK_MONOTONIC.  The caller re-checks its own state and deadline
   after every return, so a spurious wake or a timeout are both a plain
   return.  Two runtime assumptions:
   - the 5.1 layout of Condition.t: a custom block holding a
     pthread_cond_t * (runtime/sync.c), as caml/sync.h's Mutex_val reads a
     Mutex.t;
   - glibc >= 2.30, for pthread_cond_clockwait, which takes the clock per
     call (the runtime initialises its condition variables with the
     default, CLOCK_REALTIME). */

#define _GNU_SOURCE
#define CAML_INTERNALS
#include <errno.h>
#include <pthread.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/sync.h>

#define Condition_val(v) (*((pthread_cond_t **)Data_custom_val(v)))

value ddm_workq_timed_wait(value cond, value mut, value timeout_s)
{
  CAMLparam3(cond, mut, timeout_s);
  pthread_cond_t *c = Condition_val(cond);
  pthread_mutex_t *m = Mutex_val(mut);
  double left = Double_val(timeout_s);
  struct timespec until;
  int rc;
  clock_gettime(CLOCK_MONOTONIC, &until);
  until.tv_sec += (time_t)left;
  until.tv_nsec += (long)((left - (double)(time_t)left) * 1e9);
  if (until.tv_nsec >= 1000000000L) {
    until.tv_sec += 1;
    until.tv_nsec -= 1000000000L;
  }
  caml_enter_blocking_section();
  rc = pthread_cond_clockwait(c, m, CLOCK_MONOTONIC, &until);
  caml_leave_blocking_section();
  if (rc != 0 && rc != ETIMEDOUT) caml_failwith("Workq: pthread_cond_clockwait failed");
  CAMLreturn(Val_unit);
}
