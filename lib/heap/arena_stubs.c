/* Prefetch hint for arena slots (Arena.prefetch).

   One prefetch instruction, no load: it reads no simulated state, cannot
   fault on any address, and changes nothing the program can observe
   except how long the next load of that slot waits.  Declared [@@noalloc]
   with an untagged index, so OCaml calls the unboxed entry directly; the
   boxed entry exists for bytecode. */

#include <caml/mlvalues.h>

value cgc_arena_prefetch(value data, intnat i)
{
  __builtin_prefetch(Op_val(data) + i, 0, 3);
  return Val_unit;
}

value cgc_arena_prefetch_byte(value data, value i)
{
  return cgc_arena_prefetch(data, Long_val(i));
}
