(** Fleet-wide SLO report: text summary and [cgcsim-cluster-v3] JSON.

    Merges the per-shard server reports into one artefact with four
    fleet-level views a single-server report cannot express:

    {ul
    {- {e fleet} — summed counters, merged latency histograms, the
       fleet SLO attainment (sheds and timeouts count as violations,
       exactly as in {!Cgc_server.Server.slo_attainment}) and the
       availability (completed fraction of all drawn arrivals);}
    {- {e balance} — min/max/CV of routed and completed requests per
       shard, the direct measure of what the routing policy did;}
    {- {e phenomena} — derived from the shards' [bin_ms] timeline bins:
       {e co-stopped} windows where several shards' worlds were stopped
       at once (unsynchronised collectors drifting into alignment), and
       {e shed storms} where overload control fires across the fleet in
       the same bin (incarnations of one shard are merged per shard id
       first, so the counts are of shards, not VMs);}
    {- {e chaos} — the v2 block: scenario/seed/victim, the degradation
       ladder counters (retried / redirected / hedge-wins / fleet-shed /
       unroutable / lost-in-crash / unarrived), availability,
       balancer-visible time-to-recover, and the per-epoch live counts
       and routing-table digests proving when routing changed.}}

    v3 adds the causal-span blocks to the fleet view — the exact
    [blame] decomposition summed over every completed request, the
    fleet-merged worst-span [tails] and per-decade [exemplars] — plus
    per-incarnation [droppedByTid] ring-loss warnings.

    Follows the repo's schema conventions: a [schema] tag,
    deterministic key order, [%.6f] floats — equal-seed runs serialise
    byte-identically.  The per-shard array embeds each incarnation's
    [cgcsim-server-v2] report unchanged, so existing tooling can peel
    one shard out of a fleet artefact. *)

val schema : string
(** ["cgcsim-cluster-v3"]. *)

type phenomena = {
  bins : int;  (** timeline bins covering the run *)
  co_max_stopped : int;  (** most shards stopped in one bin *)
  co_frac : float;  (** fraction of bins with >= 2 shards stopped *)
  shed_total : int;
  shed_peak_bin : int;  (** most fleet sheds in one bin *)
  shed_max_shards : int;  (** most shards shedding in one bin *)
  shed_frac : float;  (** fraction of bins with any shed *)
}

val phenomena : Cluster.result -> phenomena
(** Fold the shards' timeline bins into the fleet-phenomena counters —
    exposed for the [clusterlat] experiment and tests; {!to_json} and
    {!text} render the same values. *)

val text : Cluster.result -> string
(** Human-readable summary: fleet rates and SLO, a per-shard table
    (routed / completed / shed / GC cycles / max pause), balance
    figures and the phenomena counters. *)

val to_json : Cluster.result -> Cgc_prof.Json.t

val read : Cgc_prof.Json.t -> (Cgc_server.Span.summary * int, string) result
(** Read a parsed report's spans back: the fleet block and every
    embedded [perShard[].server] report go through
    {!Cgc_server.Report.read_spans}, so a missing key or a broken
    conservation identity anywhere fails with its JSON path (e.g.
    ["perShard[2].server.tails[0].blame: ..."]).  Returns the fleet
    summary and the ring-dropped events summed over shards. *)

val validate : string -> (Cgc_prof.Json.t, string) result
(** Parse a serialised report, check its [schema] tag and {!read} it —
    the cluster artefact's round-trip guard (exit code 4 territory in
    the CLI). *)
