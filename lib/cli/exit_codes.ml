(* The single source of truth for cgcsim process exit codes.

   Every numeric exit in bin/cgcsim.ml comes from here, the README
   table between the exit-codes markers is generated from
   [markdown_table] (kept in sync by a test), and `cgcsim exit-codes`
   prints the same rows — one definition, three consumers. *)

type code = { value : int; name : string; meaning : string }

let ok = 0
let usage = 1
let oom = 2
let invariant = 3
let schema = 4
let drops = 5
let slo = 6
let fleet = 7

let all =
  [
    { value = ok; name = "ok"; meaning = "success" };
    {
      value = usage;
      name = "usage";
      meaning = "usage or configuration error (bad flags, unwritable output)";
    };
    {
      value = oom;
      name = "oom";
      meaning =
        "heap exhausted after the full degradation ladder (diagnosed OOM)";
    };
    {
      value = invariant;
      name = "invariant";
      meaning = "heap invariant violation under `--verify`";
    };
    {
      value = schema;
      name = "schema";
      meaning =
        "trace/report rejected by the analyzer: schema tag, malformed field, \
         or a broken blame-conservation identity";
    };
    {
      value = drops;
      name = "drops";
      meaning = "event-ring overflow with `--fail-on-drops`";
    };
    {
      value = slo;
      name = "slo";
      meaning =
        "SLO attainment below `--slo-target` (`serve`/`cluster` with \
         `--slo-ms`)";
    };
    {
      value = fleet;
      name = "fleet-unavailable";
      meaning =
        "the cluster degradation ladder bottomed out under `--chaos` \
         (`--give-up`, typed `Fleet_unavailable`)";
    };
  ]

let markdown_table () =
  let b = Buffer.create 512 in
  Buffer.add_string b "| code | name | meaning |\n";
  Buffer.add_string b "| ---- | ---- | ------- |\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "| %d | `%s` | %s |\n" c.value c.name c.meaning))
    all;
  Buffer.contents b

let text () =
  let b = Buffer.create 512 in
  List.iter
    (fun c ->
      Buffer.add_string b (Printf.sprintf "%d  %-17s %s\n" c.value c.name c.meaning))
    all;
  Buffer.contents b
