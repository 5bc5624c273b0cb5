/* Peak resident set of the waited-for child processes: the one number
   the OCaml Unix library cannot reach (it wraps times(2), not
   getrusage(2)).  The cli_oneshot workload reports it as the memory a
   one-shot vdram process needs. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value ledger_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
