/* The calling domain's count of words allocated in the major heap, read
   without allocating, for Trace's spans.  It is the count Gc.counters
   reports as major words (stat_major_words plus the words allocated since
   the last major slice).  Gc.counters itself is not used: on OCaml 5.1 it
   boxes its three floats one after another without registering them as
   roots, so a minor collection triggered by a later box leaves the earlier
   ones dangling, and a span that keeps one across a collection can crash
   the runtime ("allocation failure during minor GC"). */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/domain_state.h>

intnat ddm_trace_major_words_untagged(value unit)
{
  (void)unit;
  return Caml_state->stat_major_words + Caml_state->allocated_words;
}

value ddm_trace_major_words(value unit)
{
  return Val_long(ddm_trace_major_words_untagged(unit));
}
