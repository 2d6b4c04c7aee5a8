/* Prefetch hint for arena slots (Arena.prefetch).

   One prefetch instruction, no load: it reads no simulated state, cannot
   fault on any address, and changes nothing the program can observe
   except how long the next load of that slot waits.  Slot [i] is the
   64-bit word at byte [8 * i] of the arena's bytes.  Declared [@@noalloc]
   with an untagged index, so OCaml calls the unboxed entry directly; the
   boxed entry exists for bytecode. */

#include <caml/mlvalues.h>

value cgc_arena_prefetch(value data, intnat i)
{
  __builtin_prefetch(Bytes_val(data) + 8 * i, 0, 3);
  return Val_unit;
}

value cgc_arena_prefetch_byte(value data, value i)
{
  return cgc_arena_prefetch(data, Long_val(i));
}
