/* The signal side of Pc_sampler: a SIGPROF handler that records the
   interrupted program counter.

   The handler runs with SA_ONSTACK on a signal stack of its own: a
   sample that lands while an OCaml fiber runs (the simulator's threads
   are effect-handler fibers with small heap-allocated stacks) would
   otherwise push the signal frame onto that fiber's stack and overflow
   it.  The handler only stores the PC from its ucontext in a static
   array, so it is async-signal-safe; PCs past the array's capacity are
   counted and dropped.  Resolving PCs to source lines happens in OCaml,
   after the window.  The signal stack is installed on the calling
   thread only, so only a window that runs on one domain is sampled
   reliably. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define ALT_STACK_BYTES (64 * 1024)

static uintnat *pcs;
static uintnat capacity;
static uintnat taken;
static char alt_stack[ALT_STACK_BYTES] __attribute__((aligned(16)));
static stack_t old_stack;
static struct sigaction old_action;

static uintnat pc_of(void *uc)
{
  ucontext_t *u = uc;
#if defined(__linux__) && defined(__x86_64__)
  return (uintnat)u->uc_mcontext.gregs[REG_RIP];
#elif defined(__linux__) && defined(__aarch64__)
  return (uintnat)u->uc_mcontext.pc;
#else
  (void)u;
  return 0; /* no PC on this host: every sample resolves as outside */
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *uc)
{
  uintnat k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  (void)sig;
  (void)info;
  if (k < capacity) pcs[k] = pc_of(uc);
}

static void set_timer(long us)
{
  struct itimerval t;
  t.it_interval.tv_sec = us / 1000000;
  t.it_interval.tv_usec = us % 1000000;
  t.it_value = t.it_interval;
  setitimer(ITIMER_PROF, &t, NULL);
}

value cgc_pc_sampler_start(value period_us, value cap)
{
  stack_t st;
  struct sigaction sa;
  if (pcs != NULL) caml_failwith("Pc_sampler: already sampling");
  capacity = Long_val(cap);
  taken = 0;
  pcs = malloc(capacity * sizeof(uintnat));
  if (pcs == NULL) caml_raise_out_of_memory();
  st.ss_sp = alt_stack;
  st.ss_size = ALT_STACK_BYTES;
  st.ss_flags = 0;
  if (sigaltstack(&st, &old_stack) != 0) {
    free(pcs);
    pcs = NULL;
    caml_failwith("Pc_sampler: sigaltstack failed");
  }
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, &old_action);
  set_timer(Long_val(period_us));
  return Val_unit;
}

/* Disarm the timer, discard a pending SIGPROF (SIG_IGN drops it) before
   putting the old handler and signal stack back, and return the PCs,
   oldest first, with the number dropped past the capacity. */
value cgc_pc_sampler_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(arr, res);
  struct sigaction ign;
  uintnat n, i;
  (void)unit;
  if (pcs == NULL) caml_failwith("Pc_sampler: not sampling");
  set_timer(0);
  memset(&ign, 0, sizeof ign);
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPROF, &ign, NULL);
  sigaction(SIGPROF, &old_action, NULL);
  sigaltstack(&old_stack, NULL);
  n = taken < capacity ? taken : capacity;
  arr = caml_alloc(n, 0);
  for (i = 0; i < n; i++) Store_field(arr, i, Val_long(pcs[i]));
  res = caml_alloc_tuple(2);
  Store_field(res, 0, arr);
  Store_field(res, 1, Val_long(taken - n));
  free(pcs);
  pcs = NULL;
  CAMLreturn(res);
}
