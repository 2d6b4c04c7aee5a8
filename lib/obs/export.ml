let trace_schema = "cgcsim-trace-v1"

type trace_meta = {
  cycles_per_us : float;
  emitted : int;
  dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Chrome-trace writer.

   Every [ts]/[dur] field is [Printf "%.3f" (float c /. cycles_per_us)].
   Callers derive [cycles_per_us] as [float cycles_per_ms /. 1000.], so
   the field is the rational [c * 10^6 / cycles_per_ms] thousandths,
   rounded to the nearest integer — computable exactly in integers.
   The float quotient Printf sees differs from that rational by at most
   2^-52 relative (one rounding in [cycles_per_us], one in the
   division), which is under 5e-4 thousandths while the value stays
   below 2^41 thousandths.  So wherever the rational's fraction is more
   than 1e-3 from a half, both round the same way and the digit loop
   below writes Printf's exact bytes; everywhere else (near ties,
   values past 2^41 thousandths, negative cycles, a rate that is not an
   integer per ms) the writer calls Printf itself.  At 550 cycles/us the
   fraction is always k/11, so the fallback never fires. *)

(* The integer cycles-per-ms rate whose correctly rounded [/ 1000] is
   [cycles_per_us], or 0 when there is none (Printf then formats every
   value). *)
let exact_rate cycles_per_us =
  if not (cycles_per_us >= 0.001 && cycles_per_us < 1e9) then 0
  else
    let cpms = int_of_float (Float.round (cycles_per_us *. 1000.0)) in
    if float_of_int cpms /. 1000.0 = cycles_per_us then cpms else 0

let max_fast_cycles = max_int / 1_000_000
let max_fast_thousandths = 1 lsl 41

(* [c] cycles at [cpms] cycles/ms as the integer thousandths of a
   microsecond %.3f prints, or -1 when the exact path cannot prove it. *)
let thousandths ~cpms c =
  if cpms = 0 || c < 0 || c > max_fast_cycles then -1
  else
    let num = c * 1_000_000 in
    let q = num / cpms and r = num mod cpms in
    (* |fraction - 1/2| = |2r - cpms| / 2cpms must exceed 1e-3. *)
    if q >= max_fast_thousandths || 1000 * abs ((2 * r) - cpms) <= 2 * cpms
    then -1
    else if 2 * r > cpms then q + 1
    else q

(* One precomputed prefix per event code and [ph] kind: everything up to
   the first number. *)
let prefixes ph =
  Array.of_list
    (List.map
       (fun c ->
         Printf.sprintf "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":%s"
           (Event.name c) (Event.cat c) ph)
       Event.all_codes)

let span_prefix = prefixes "\"X\",\"dur\":"
let instant_prefix = prefixes "\"i\",\"s\":\"t\",\"ts\":"

(* A writer fills a byte buffer.  For a string, the buffer is exactly
   the document's length: a sizing pass over the events fixes the
   length, then the write pass fills it, with no reallocation and no
   final copy; every [size_*] below must count exactly the bytes its
   [put_*] writes.  For a channel, the buffer is a fixed window drained to the
   channel whenever the next token does not fit, so the document is
   never held whole. *)

let ts_sep = ",\"ts\":"
let tid_sep = ",\"pid\":0,\"tid\":"
let arg_sep = ",\"args\":{\"v\":"
let close = "}}"

(* Decimal digits of [n >= 0]. *)
let digits n =
  let rec go n k = if n < 10 then k else go (n / 10) (k + 1) in
  go n 1

let size_int n =
  if n >= 0 then digits n
  else if n = min_int then String.length (string_of_int n)
  else 1 + digits (-n)

let printf_us ~cycles_per_us c =
  Printf.sprintf "%.3f" (float_of_int c /. cycles_per_us)

let size_us ~cpms ~cycles_per_us c =
  match thousandths ~cpms c with
  | -1 -> String.length (printf_us ~cycles_per_us c)
  | m -> digits (m / 1000) + 4

let size_event ~cpms ~cycles_per_us ~ts ~dur ~tid ~code ~arg =
  let k = Event.index code in
  (if dur < 0 then String.length instant_prefix.(k)
   else
     String.length span_prefix.(k)
     + size_us ~cpms ~cycles_per_us dur
     + String.length ts_sep)
  + size_us ~cpms ~cycles_per_us ts
  + String.length tid_sep + size_int tid + String.length arg_sep
  + size_int arg + String.length close

type writer = {
  out : Bytes.t;
  mutable pos : int;
  drain : writer -> unit;  (** make room: empty [out] or raise *)
  cycles_per_us : float;
  cpms : int;
}

let sizing_bug _ = invalid_arg "Export: trace sizing pass disagrees"

(* The build compiles with [-unsafe], so the writes below check their
   room themselves: a sizing bug must raise, never write out of bounds. *)
let room w n =
  if w.pos + n > Bytes.length w.out then begin
    w.drain w;
    if w.pos + n > Bytes.length w.out then sizing_bug w
  end

let put_char w c =
  room w 1;
  Bytes.unsafe_set w.out w.pos c;
  w.pos <- w.pos + 1

let put_string w s =
  room w (String.length s);
  Bytes.unsafe_blit_string s 0 w.out w.pos (String.length s);
  w.pos <- w.pos + String.length s

(* [n >= 0]'s digits, written right to left. *)
let put_uint w n =
  let k = digits n in
  room w k;
  let n = ref n in
  for i = w.pos + k - 1 downto w.pos do
    Bytes.unsafe_set w.out i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  w.pos <- w.pos + k

let put_int w n =
  if n >= 0 then put_uint w n
  else if n = min_int then put_string w (string_of_int n)
  else begin
    put_char w '-';
    put_uint w (-n)
  end

(* Digit [d] at [i] bytes past [pos]; the caller has checked the room. *)
let set_digit w i d =
  Bytes.unsafe_set w.out (w.pos + i) (Char.unsafe_chr (48 + d))

let put_us w c =
  match thousandths ~cpms:w.cpms c with
  | -1 -> put_string w (printf_us ~cycles_per_us:w.cycles_per_us c)
  | m ->
      put_uint w (m / 1000);
      room w 4;
      let f = m mod 1000 in
      Bytes.unsafe_set w.out w.pos '.';
      set_digit w 1 (f / 100);
      set_digit w 2 (f / 10 mod 10);
      set_digit w 3 (f mod 10);
      w.pos <- w.pos + 4

let format_us ~cycles_per_us c =
  let cpms = exact_rate cycles_per_us in
  let w =
    {
      out = Bytes.create (size_us ~cpms ~cycles_per_us c);
      pos = 0;
      drain = sizing_bug;
      cycles_per_us;
      cpms;
    }
  in
  put_us w c;
  Bytes.to_string w.out

(* The one per-event writer: every export path funnels through here. *)
let put_event w ~ts ~dur ~tid ~code ~arg =
  let k = Event.index code in
  if dur < 0 then
    (* Thread-scoped instant event. *)
    put_string w instant_prefix.(k)
  else begin
    put_string w span_prefix.(k);
    put_us w dur;
    put_string w ts_sep
  end;
  put_us w ts;
  put_string w tid_sep;
  put_int w tid;
  put_string w arg_sep;
  put_int w arg;
  put_string w close

let header ~emitted ~dropped ~cycles_per_us =
  Printf.sprintf
    "{\"displayTimeUnit\":\"ms\",\"cgcSchema\":\"%s\",\"cyclesPerUs\":%.3f,\"emitted\":%d,\"dropped\":%d,\"traceEvents\":["
    trace_schema cycles_per_us emitted dropped

let footer = "\n]}\n"

(* The whole document; [ordered] calls its argument once per event, in
   output order. *)
let put_document w ~header ~ordered =
  put_string w header;
  let first = ref true in
  ordered (fun ~ts ~dur ~tid ~code ~arg ->
      if !first then first := false else put_char w ',';
      put_event w ~ts ~dur ~tid ~code ~arg);
  put_string w footer

(* [ordered] is called twice: to size the document, then to write it. *)
let render ~emitted ~dropped ~cycles_per_us ordered =
  let header = header ~emitted ~dropped ~cycles_per_us in
  let cpms = exact_rate cycles_per_us in
  let n = ref 0 and size = ref 0 in
  ordered (fun ~ts ~dur ~tid ~code ~arg ->
      incr n;
      size := !size + size_event ~cpms ~cycles_per_us ~ts ~dur ~tid ~code ~arg);
  let size =
    String.length header + !size + max 0 (!n - 1) + String.length footer
  in
  let w =
    {
      out = Bytes.create size;
      pos = 0;
      drain = sizing_bug;
      cycles_per_us;
      cpms;
    }
  in
  put_document w ~header ~ordered;
  if w.pos <> size then sizing_bug w;
  Bytes.unsafe_to_string w.out

let visit_record f (e : Event.t) =
  f ~ts:e.ts ~dur:e.dur ~tid:e.tid ~code:e.code ~arg:e.arg

let chrome_json ?(emitted = 0) ?(dropped = 0) ~cycles_per_us events =
  render ~emitted ~dropped ~cycles_per_us (fun f ->
      List.iter (visit_record f) events)

let chrome_obs ~cycles_per_us o =
  render ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o) ~cycles_per_us
    (Obs.iter_sorted o)

(* Far longer than any one token, so [room] never raises after a drain. *)
let window = 65536

let output_chrome_obs oc ~cycles_per_us o =
  let drain w =
    output oc w.out 0 w.pos;
    w.pos <- 0
  in
  let w =
    {
      out = Bytes.create window;
      pos = 0;
      drain;
      cycles_per_us;
      cpms = exact_rate cycles_per_us;
    }
  in
  put_document w
    ~header:
      (header ~emitted:(Obs.emitted o) ~dropped:(Obs.dropped o) ~cycles_per_us)
    ~ordered:(Obs.iter_sorted o);
  drain w

(* ------------------------------------------------------------------ *)
(* Chrome-trace re-parser.

   Strict by design: it accepts exactly the shape the writer produces
   (schema tag, categories and three-decimal numbers included) and
   recovers the integer cycle timestamps.  Literals are compared in
   place and numbers read digit by digit, so the only allocations per
   event are its record and list cell.  A [ts]/[dur] literal is read as
   integer thousandths [m]; [float m /. 1000.] is then the correctly
   rounded value of the literal — exactly what [float_of_string]
   returns — so the recovered cycles are bit-identical to a float
   parse.  Rounding
   back to cycles is exact while [cycles_per_us < 1000]: the %.3f
   rounding error is at most 0.0005 us, i.e. under half a cycle (the
   float error adds under 0.002 cycles for timestamps below 2^42).
   Anything else is rejected with a message and a byte offset rather
   than mis-parsed; the parser never raises. *)

exception Bad of string

(* Event codes bucketed by name length, for the in-place name lookup. *)
let codes_by_name_length =
  let longest =
    List.fold_left (fun m c -> max m (String.length (Event.name c))) 0
      Event.all_codes
  in
  let t = Array.make (longest + 1) [] in
  List.iter
    (fun c ->
      let n = String.length (Event.name c) in
      t.(n) <- t.(n) @ [ c ])
    Event.all_codes;
  t

(* Numbers with more digits than this go through [float_of_string]:
   [float m] is exact only below 2^53. *)
let max_exact_thousandths = ((1 lsl 53) / 10) - 1

let parse_chrome_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let matches_at p l =
    let n = String.length l in
    p + n <= len
    &&
    let i = ref 0 in
    while !i < n && String.unsafe_get s (p + !i) = String.unsafe_get l !i do
      incr i
    done;
    !i = n
  in
  let literal l =
    if matches_at !pos l then pos := !pos + String.length l
    else fail (Printf.sprintf "expected %S" l)
  in
  let digit () = !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' in
  let minus () =
    let neg = !pos < len && s.[!pos] = '-' in
    if neg then incr pos;
    neg
  in
  (* Accumulated negated, so [min_int] is readable. *)
  let int_field () =
    let neg = minus () in
    if not (digit ()) then fail "expected an integer";
    let acc = ref 0 in
    while digit () do
      let d = Char.code s.[!pos] - 48 in
      if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10))
      then fail "integer out of range";
      acc := (!acc * 10) - d;
      incr pos
    done;
    if neg then !acc
    else if !acc = min_int then fail "integer out of range"
    else - !acc
  in
  (* Digits from [pos] appended to [m] while [float m] stays exact;
     [min_int] once it does not. *)
  let rec digits_onto m =
    if digit () then begin
      let d = Char.code s.[!pos] - 48 in
      incr pos;
      digits_onto
        (if m <> min_int && m <= max_exact_thousandths then (m * 10) + d
         else min_int)
    end
    else m
  in
  (* A %.3f literal as signed integer thousandths, or [min_int] when
     it has too many digits for that. *)
  let thousandths_field () =
    let neg = minus () in
    if not (digit ()) then fail "expected a number";
    let m = digits_onto 0 in
    if not (!pos < len && s.[!pos] = '.') then fail "expected a decimal point";
    incr pos;
    let decimals = !pos in
    let m = digits_onto m in
    if !pos - decimals <> 3 then fail "expected exactly three decimals";
    if neg && m <> min_int then -m else m
  in
  (* The literal's value: [float m /. 1000.] is the correctly rounded
     value of [m] thousandths, as [float_of_string]'s is. *)
  let value ~start m =
    if m = min_int then float_of_string (String.sub s start (!pos - start))
    else float_of_int m /. 1000.0
  in
  (* The code, among same-length candidates, named by the [n] bytes at
     [start]. *)
  let rec lookup start n = function
    | c :: rest ->
        if matches_at start (Event.name c) then c else lookup start n rest
    | [] ->
        pos := start;
        if start + n >= len then fail "unterminated event name"
        else
          fail (Printf.sprintf "unknown event name %S" (String.sub s start n))
  in
  (* The code whose name runs from [pos] to the next quote. *)
  let event_code () =
    let start = !pos in
    while !pos < len && s.[!pos] <> '"' do incr pos done;
    let n = !pos - start in
    lookup start n
      (if n < Array.length codes_by_name_length then codes_by_name_length.(n)
       else [])
  in
  try
    literal "{\"displayTimeUnit\":\"ms\",\"cgcSchema\":\"";
    let schema_start = !pos in
    while !pos < len && s.[!pos] <> '"' do incr pos done;
    if !pos >= len then fail "unterminated schema tag";
    let schema = String.sub s schema_start (!pos - schema_start) in
    if schema <> trace_schema then begin
      pos := schema_start;
      fail
        (Printf.sprintf "unsupported trace schema %S (want %S)" schema
           trace_schema)
    end;
    literal "\",\"cyclesPerUs\":";
    let rate_start = !pos in
    let cycles_per_us = value ~start:rate_start (thousandths_field ()) in
    if cycles_per_us <= 0.0 || cycles_per_us >= 1000.0 then begin
      pos := rate_start;
      fail "cyclesPerUs out of the exactly-invertible range"
    end;
    literal ",\"emitted\":";
    let emitted = int_field () in
    literal ",\"dropped\":";
    let dropped = int_field () in
    literal ",\"traceEvents\":[";
    (* A microsecond field, in cycles. *)
    let cycles_field () =
      let start = !pos in
      let m = thousandths_field () in
      let f =
        if m = min_int then value ~start m else float_of_int m /. 1000.0
      in
      int_of_float (Float.round (f *. cycles_per_us))
    in
    let events = ref [] in
    let first = ref true in
    while not (matches_at !pos "\n]}\n") do
      if !first then first := false else literal ",";
      let start = !pos in
      literal "\n{\"name\":\"";
      let code = event_code () in
      (* Name known: the rest of the writer's prefix must follow. *)
      pos := start;
      let dur =
        if matches_at start instant_prefix.(Event.index code) then begin
          literal instant_prefix.(Event.index code);
          -1
        end
        else begin
          literal span_prefix.(Event.index code);
          let dur = cycles_field () in
          literal ts_sep;
          dur
        end
      in
      let ts = cycles_field () in
      literal tid_sep;
      let tid = int_field () in
      literal arg_sep;
      let arg = int_field () in
      literal close;
      events := { Event.ts; dur; tid; code; arg } :: !events
    done;
    literal "\n]}\n";
    if !pos <> len then fail "trailing bytes after the trace";
    Ok ({ cycles_per_us; emitted; dropped }, List.rev !events)
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then begin
    let b = Buffer.create (String.length f + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      f;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else f

let csv ?schema ~header rows =
  let b = Buffer.create 4096 in
  (match schema with
  | Some s -> Buffer.add_string b (Printf.sprintf "#schema=%s\n" s)
  | None -> ());
  let row r = Buffer.add_string b (String.concat "," (List.map csv_field r)) in
  row header;
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      row r;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let parse_csv s =
  let len = String.length s in
  let pos = ref 0 in
  let schema =
    if len > 8 && String.sub s 0 8 = "#schema=" then begin
      let eol = try String.index s '\n' with Not_found -> len in
      pos := min len (eol + 1);
      Some (String.sub s 8 (eol - 8))
    end
    else None
  in
  (* RFC-4180-enough: fields separated by commas, rows by '\n', quoted
     fields may contain commas, quotes ("" escapes) and newlines. *)
  let rows = ref [] and row = ref [] and field = Buffer.create 64 in
  let flush_field () =
    row := Buffer.contents field :: !row;
    Buffer.clear field
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let error = ref None in
  (try
     while !pos < len do
       match s.[!pos] with
       | '"' ->
           if Buffer.length field > 0 then failwith "quote inside bare field";
           incr pos;
           let closed = ref false in
           while not !closed do
             if !pos >= len then failwith "unterminated quoted field";
             (match s.[!pos] with
             | '"' ->
                 if !pos + 1 < len && s.[!pos + 1] = '"' then begin
                   Buffer.add_char field '"';
                   incr pos
                 end
                 else closed := true
             | c -> Buffer.add_char field c);
             incr pos
           done
       | ',' ->
           flush_field ();
           incr pos
       | '\n' ->
           flush_row ();
           incr pos
       | c ->
           Buffer.add_char field c;
           incr pos
     done;
     if Buffer.length field > 0 || !row <> [] then failwith "missing final newline"
   with Failure msg -> error := Some msg);
  match !error with
  | Some msg -> Error msg
  | None -> (
      match List.rev !rows with
      | [] -> Error "empty file"
      | header :: rows -> Ok (schema, header, rows))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
