/* Prefetch hint for arena slots (Arena.prefetch).

   Two prefetch instructions, no load of the arena: the 64-byte line
   holding slot [i] and the line after it, which between them hold every
   slot of an object of up to 9 slots whose header is slot [i], so the
   scan's reference-slot loads find their line on its way as well as the
   header's.  The second line is requested only when its address lies
   inside the block, so no pointer past it is formed.  The hint reads no
   simulated state, cannot fault on any address, and changes nothing the
   program can observe except how long the next loads of those slots
   wait.  Slot [i] is the 64-bit word at byte [8 * i] of the arena's
   bytes.  Declared [@@noalloc] with an untagged index, so OCaml calls
   the unboxed entry directly; the boxed entry exists for bytecode. */

#include <caml/mlvalues.h>

#define LINE 64

value cgc_arena_prefetch(value data, intnat i)
{
  const char *p = (const char *)Bytes_val(data) + 8 * i;
  __builtin_prefetch(p, 0, 3);
  if ((uintnat)(8 * i + LINE) < Bosize_val(data))
    __builtin_prefetch(p + LINE, 0, 3);
  return Val_unit;
}

value cgc_arena_prefetch_byte(value data, value i)
{
  return cgc_arena_prefetch(data, Long_val(i));
}
