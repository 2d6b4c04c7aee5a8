(* Tests for the CLI exit-code single source of truth (Cgc_cli): the
   codes are exactly 0-7 with unique names, and the README's exit-code
   table between the markers is the literal output of markdown_table —
   so the binary, `cgcsim exit-codes --markdown` and the docs can never
   drift apart.

   Then the cgcsim binary itself: golden digests of a few short runs'
   outputs, every sub-command's option list as printed by --help=plain,
   and the exit code of malformed command lines. *)

module Exit_codes = Cgc_cli.Exit_codes

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let test_codes_complete_and_unique () =
  let codes = Exit_codes.all in
  check ci "eight codes" 8 (List.length codes);
  List.iteri
    (fun i (c : Exit_codes.code) ->
      check ci "ascending, dense from zero" i c.Exit_codes.value)
    codes;
  let names = List.map (fun c -> c.Exit_codes.name) codes in
  check ci "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (c : Exit_codes.code) ->
      check cb
        (Printf.sprintf "code %d has a meaning" c.Exit_codes.value)
        true
        (String.length c.Exit_codes.meaning > 0))
    codes

let test_constants_match_table () =
  let value name =
    (List.find (fun c -> c.Exit_codes.name = name) Exit_codes.all)
      .Exit_codes.value
  in
  check ci "ok" Exit_codes.ok (value "ok");
  check ci "usage" Exit_codes.usage (value "usage");
  check ci "oom" Exit_codes.oom (value "oom");
  check ci "invariant" Exit_codes.invariant (value "invariant");
  check ci "schema" Exit_codes.schema (value "schema");
  check ci "drops" Exit_codes.drops (value "drops");
  check ci "slo" Exit_codes.slo (value "slo");
  check ci "fleet" Exit_codes.fleet (value "fleet-unavailable")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_readme_table_in_sync () =
  (* The README block between the markers must be byte-identical to the
     generated table (regenerate with
     `cgcsim exit-codes --markdown`). *)
  (* Under `dune runtest` the README is a declared dep at ../README.md;
     under `dune exec` from the repo root it is in the cwd. *)
  let readme =
    match List.find_opt Sys.file_exists [ "../README.md"; "README.md" ] with
    | Some path -> read_file path
    | None -> Alcotest.fail "README.md not found"
  in
  let begin_marker = "<!-- exit-codes:begin -->\n" in
  let end_marker = "<!-- exit-codes:end -->" in
  let find needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      if i + nl > hl then None
      else if String.sub hay i nl = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  match (find begin_marker readme, find end_marker readme) with
  | Some b, Some e when b < e ->
      let start = b + String.length begin_marker in
      let block = String.sub readme start (e - start) in
      check Alcotest.string "README table matches Exit_codes.markdown_table"
        (Exit_codes.markdown_table ())
        block
  | _ -> Alcotest.fail "README.md is missing the exit-codes markers"

let test_markdown_rows () =
  let table = Exit_codes.markdown_table () in
  List.iter
    (fun (c : Exit_codes.code) ->
      let cell = Printf.sprintf "| %d | `%s` |" c.Exit_codes.value
          c.Exit_codes.name in
      let found =
        let nl = String.length cell and hl = String.length table in
        let rec go i =
          i + nl <= hl
          && (String.sub table i nl = cell || go (i + 1))
        in
        go 0
      in
      check cb (Printf.sprintf "table has a row for %s" c.Exit_codes.name)
        true found)
    Exit_codes.all

(* ------------------------------------------------------------------ *)
(* The cgcsim binary                                                   *)

(* Under `dune runtest` the binary is a declared dep at
   ../bin/cgcsim.exe; under `dune exec` from the repo root it is in
   _build. *)
let cgcsim =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "../bin/cgcsim.exe"; "_build/default/bin/cgcsim.exe" ]
     with
    | Some path -> Filename.concat (Sys.getcwd ()) path
    | None -> Alcotest.fail "cgcsim.exe not found")

(* Run cgcsim with [args] (already shell-quoted) inside [dir], stdout to
   [dir/stdout] and stderr discarded; returns the exit code. *)
let cgcsim_in dir ?(stdout = "/dev/null") args =
  Sys.command
    (Printf.sprintf "cd %s && %s %s > %s 2> /dev/null" (Filename.quote dir)
       (Filename.quote (Lazy.force cgcsim))
       args (Filename.quote stdout))

let in_scratch f =
  let dir = Filename.temp_dir "cgcsim-cli" "" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* MD5 digests of deterministic outputs: a change to the command-line
   layer must leave every simulated byte alone.  Most flags stay at
   their defaults, so these runs also pin the defaults.  Each run is
   well under a second. *)
let golden =
  [
    ( "run --workload specjbb --warehouses 2 --heap-mb 16 --ms 200 --seed 1",
      [ ("stdout", "24975bc9f4d14fea33848a58c464edfe") ] );
    ( "serve -c gen --ms 200 --seed 1 --json serve.json --trace-out \
       serve.trace.json",
      [
        ("serve.json", "6ba111f4542ea856cc0178cdc83aac2c");
        ("serve.trace.json", "a81f946816b823896f5d2b430496e539");
      ] );
    ( "cluster --shards 2 --ms 200 --seed 1 --json cluster.json --trace-out cl",
      [
        ("cluster.json", "a93195fbe2d55d6cc00001c23aa6fbeb");
        ("cl.shard0.json", "d19683dde6b4307e026e565e6e8b501a");
      ] );
    (* The analysis is labelled with the trace's path, so it is read
       under the same relative name the serve run wrote. *)
    ( "analyze --trace serve.trace.json --json analysis.json",
      [ ("analysis.json", "452da7d417d783051f5a1f9bb71cbc30") ] );
    (* Tail forensics and LBO read back the two reports above.  The text
       prints e2e and mean values as the reports state them ([%.6f]), so
       a reader that rounded twice would change a digit here. *)
    ( "analyze --report serve.json --tails 8",
      [ ("stdout", "e54783b8f561e59af97636a071e5d817") ] );
    ( "analyze --report serve.json --tails 8 --json serve.tails.json",
      [ ("serve.tails.json", "b5f979a09691b324fd1fd985ac526950") ] );
    ( "analyze --report serve.json --lbo --json serve.lbo.json",
      [
        ("stdout", "6cf27ac4a05624ce659e0715ac5b0f4c");
        ("serve.lbo.json", "5c899b2e7038f2b603eb8f26a5e333ad");
      ] );
    ( "analyze --report cluster.json --tails 8",
      [ ("stdout", "6a867bfb4e8e3801587e63fd348672e2") ] );
    ( "analyze --report cluster.json --tails 8 --json cluster.tails.json",
      [ ("cluster.tails.json", "8095866415b1fe09def6ef1bf72e6133") ] );
    ( "analyze --report cluster.json --lbo --json cluster.lbo.json",
      [
        ("stdout", "5322ad30224684da8d4a28aebe006f40");
        ("cluster.lbo.json", "52d11f81a11384f4f9b3951be377920f");
      ] );
    (* This report's mean queue blame is 0.049850 ms as stated, which
       prints 0.0498; rounded from unrounded cycles it would print
       0.0499. *)
    ( "serve -c gen --rate 4000 --ms 300 --heap-mb 16 --seed 8 --json \
       rounding.json",
      [ ("rounding.json", "de94366156a21fa28d85da80ebe1a61c") ] );
    ( "analyze --report rounding.json --tails 8",
      [ ("stdout", "171050e56c380f66b3879be9d66bad19") ] );
  ]

let test_golden_digests () =
  in_scratch @@ fun dir ->
  List.iter
    (fun (args, files) ->
      check ci args 0 (cgcsim_in dir ~stdout:"stdout" args);
      List.iter
        (fun (file, digest) ->
          check Alcotest.string
            (Printf.sprintf "%s: %s" args file)
            digest
            (Digest.to_hex (Digest.file (Filename.concat dir file))))
        files)
    golden

(* Every option's label line in each sub-command's --help=plain: its
   names and aliases, value placeholder and default.  A command that
   gains, loses or renames a flag, or changes a default, fails here. *)
let option_labels =
  [
    ( "run",
      [
        "--background=VAL (absent=4)";
        "-c VAL, --gc=VAL, --collector=VAL (absent=cgc)";
        "--card-passes=VAL (absent=1)";
        "--compaction";
        "--fault-seed=VAL";
        "--heap-mb=VAL (absent=64.)";
        "--inject=SCENARIOS";
        "--lazy-sweep";
        "--metrics-out=FILE";
        "--ms=VAL (absent=4000.)";
        "--ncpus=VAL (absent=4)";
        "--packets=VAL (absent=1000)";
        "--seed=VAL (absent=1)";
        "--trace-out=FILE";
        "--trace-ring=VAL (absent=unbounded)";
        "--tracing-rate=VAL, --k0=VAL (absent=8.)";
        "--verify";
        "-w VAL, --workload=VAL (absent=specjbb)";
        "--warehouses=VAL (absent=8)";
        "--help[=FMT] (default=auto)";
      ] );
    ( "serve",
      [
        "--arrival=VAL (absent=poisson)";
        "--burst=ON,OFF,X";
        "-c VAL, --gc=VAL, --collector=VAL (absent=cgc)";
        "--fault-seed=VAL";
        "--heap-mb=VAL (absent=24.)";
        "--inject=SCENARIOS";
        "--json=FILE";
        "--metrics-out=FILE";
        "--ms=VAL (absent=2000.)";
        "--ncpus=VAL (absent=4)";
        "--queue=VAL (absent=256)";
        "--rate=VAL (absent=4000.)";
        "--seed=VAL (absent=1)";
        "--slo-ms=VAL (absent=0.)";
        "--slo-target=VAL (absent=0.999)";
        "--throttle=HI,LO";
        "--timeout-ms=VAL (absent=0.)";
        "--trace-out=FILE";
        "--trace-ring=VAL (absent=131072)";
        "--tracing-rate=VAL, --k0=VAL (absent=8.)";
        "--verify";
        "--warmup-ms=VAL (absent=0.)";
        "--workers=VAL (absent=4)";
        "--help[=FMT] (default=auto)";
      ] );
    ( "cluster",
      [
        "--arrival=VAL (absent=poisson)";
        "--bin-ms=VAL (absent=10.)";
        "--burst=ON,OFF,X";
        "-c VAL, --gc=VAL, --collector=VAL (absent=cgc)";
        "--chaos=SCENARIO";
        "--chaos-seed=VAL";
        "--epoch-ms=VAL";
        "--fault-seed=VAL";
        "--fleet-throttle=FRAC (absent=0.5)";
        "--give-up=N (absent=100)";
        "--heap-mb=VAL (absent=24.)";
        "--hedge=MARGIN (absent=0.)";
        "--inject=SCENARIOS";
        "-j N, --jobs=N (absent=1)";
        "--json=FILE";
        "--ms=VAL (absent=2000.)";
        "--ncpus=VAL (absent=4)";
        "--policy=VAL (absent=round-robin)";
        "--queue=VAL (absent=256)";
        "--rate=VAL (absent=16000.)";
        "--retries=VAL (absent=3)";
        "--retry-base-ms=VAL (absent=0.25)";
        "--seed=VAL (absent=1)";
        "--service-est-ms=VAL (absent=0.12)";
        "--shards=VAL (absent=4)";
        "--slo-ms=VAL (absent=0.)";
        "--slo-target=VAL (absent=0.999)";
        "--throttle=HI,LO";
        "--timeline-out=FILE";
        "--timeout-ms=VAL (absent=0.)";
        "--trace-out=PREFIX";
        "--trace-ring=VAL (absent=131072)";
        "--tracing-rate=VAL, --k0=VAL (absent=8.)";
        "--verify";
        "--workers=VAL (absent=4)";
        "--help[=FMT] (default=auto)";
      ] );
    ( "analyze",
      [
        "--bench=FILE";
        "--fail-on-drops";
        "--heap-mb=VAL (absent=64.)";
        "--json=FILE";
        "--lbo";
        "--metrics=FILE";
        "--mmu-windows=MS,MS,...";
        "--ms=VAL (absent=1000.)";
        "--ncpus=VAL (absent=4)";
        "--report=FILE";
        "--seed=VAL (absent=1)";
        "--tails=N (absent=16)";
        "--trace=FILE";
        "--trace-ring=VAL (absent=131072)";
        "--tracing-rate=VAL, --k0=VAL (absent=8.)";
        "-w VAL, --workload=VAL";
        "--warehouses=VAL (absent=8)";
        "--help[=FMT] (default=auto)";
      ] );
    ( "experiment",
      [
        "--fast";
        "-j N, --jobs=N (absent=1)";
        "--metrics-out=FILE";
        "--help[=FMT] (default=auto)";
      ] );
    ( "exit-codes",
      [
        "--markdown";
        "--help[=FMT] (default=auto)";
      ] );
  ]

let test_option_labels () =
  in_scratch @@ fun dir ->
  List.iter
    (fun (command, expected) ->
      check ci (command ^ " --help") 0
        (cgcsim_in dir ~stdout:"help" (command ^ " --help=plain"));
      let lines =
        In_channel.with_open_bin (Filename.concat dir "help")
          In_channel.input_all
        |> String.split_on_char '\n'
      in
      let labels =
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix:"       -" l then
              Some (String.trim l)
            else None)
          lines
      in
      check (Alcotest.list Alcotest.string) command
        (List.sort compare expected) (List.sort compare labels))
    option_labels

(* Malformed command lines exit 1 (usage), as the exit-code table says,
   not cmdliner's own 124. *)
let test_bad_flags_exit_usage () =
  in_scratch @@ fun dir ->
  List.iter
    (fun args ->
      check ci args Exit_codes.usage (cgcsim_in dir args))
    [
      "run --heap-mb abc";
      "run --bogus";
      "serve --jobs 2";
      "cluster --jobs 0";
      "run --gc bogus";
      "serve --burst 1,2";
      "serve --trace-ring 0";
      "run --trace-ring -1";
      "run --gc gen --compaction";
      "run --compaction --lazy-sweep";
      "";
    ]

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "complete and unique" `Quick
            test_codes_complete_and_unique;
          Alcotest.test_case "constants match table" `Quick
            test_constants_match_table;
          Alcotest.test_case "markdown rows" `Quick test_markdown_rows;
          Alcotest.test_case "README in sync" `Quick
            test_readme_table_in_sync;
        ] );
      ( "cgcsim",
        [
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
          Alcotest.test_case "option labels" `Quick test_option_labels;
          Alcotest.test_case "bad flags exit usage" `Quick
            test_bad_flags_exit_usage;
        ] );
    ]
