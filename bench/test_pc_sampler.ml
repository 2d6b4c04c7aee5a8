(* Tests for Pc_sampler: while a busy loop defined in this file runs,
   most samples must resolve to that loop's source lines, both on the
   main stack and inside an effect handler's fiber, whose small stack a
   signal frame would overflow without the sampler's own signal stack. *)

let loop_first = __LINE__

let[@inline never] spin n =
  let x = ref 1 in
  for i = 1 to n do
    x := (!x * 1103515245) + i
  done;
  !x

let loop_last = __LINE__

(* Spin for [cpu_s] seconds of CPU, in chunks of a few milliseconds so
   that reading the clock takes a negligible share. *)
let busy cpu_s =
  let t0 = Sys.time () in
  let acc = ref 0 in
  while Sys.time () -. t0 < cpu_s do
    acc := !acc + spin 2_000_000
  done;
  Sys.opaque_identity !acc

let in_fiber f x =
  Effect.Deep.match_with f x
    { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

let in_loop = function
  | Pc_sampler.Code { file; line; _ } ->
      Filename.basename file = "test_pc_sampler.ml"
      && line > loop_first && line < loop_last
  | Pc_sampler.Outside -> false

let check_loop run () =
  let _, pcs, dropped = Pc_sampler.sample ~period_s:0.001 (fun () -> run 0.5) in
  let sites = Pc_sampler.resolve pcs in
  let n = Array.length sites in
  let hits =
    Array.fold_left (fun k s -> if in_loop s then k + 1 else k) 0 sites
  in
  Alcotest.(check int) "no sample dropped" 0 dropped;
  if n < 20 then Alcotest.failf "only %d samples in 0.5 s of CPU" n;
  if 4 * hits < 3 * n then
    Alcotest.failf "%d of %d samples on the loop's lines (%d-%d)" hits n
      loop_first loop_last

let () =
  Alcotest.run "pc_sampler"
    [
      ( "busy loop",
        [
          Alcotest.test_case "main stack" `Quick (check_loop busy);
          Alcotest.test_case "inside a fiber" `Quick
            (check_loop (in_fiber busy));
        ] );
    ]
