package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one reported metric. The result line of an untraced
// run carries every end-to-end metric, that of a traced run every
// per-layer metric — the same set on every workload, as BENCHMARK.json
// lists them. A metric with only set exists on that workload alone. One
// with reportOnly is either legitimately 0 on a good run (failed_frac) or
// moves between identical runs by more than any bound a result-line
// metric may have (query_p99_ms, see README.md). Both kinds are printed
// in the report lines but kept out of the result line.
type metricDef struct {
	name, unit string
	layer      bool
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; for an end-to-end metric, what it means.
	moves      string
	only       string
	reportOnly bool
}

var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", moves: "corpus generation, build, save, open (and fleet start) before timing; median of the run's set-ups"},
	{name: "build_mb_s", unit: "MB/s", moves: "corpus MB indexed per second by desksearch.IndexFS (Auto, Positions, 4 shards); median of the run's builds"},
	{name: "save_s", unit: "s", moves: "Catalog.SaveDir of the built catalog; median"},
	{name: "disk_ratio", unit: "bytes/byte", moves: "bytes on disk after SaveDir per corpus byte"},
	{name: "open_ms", unit: "ms", moves: "desksearch.OpenDir of the saved directory, page cache warm; median"},
	{name: "query_p50_ms", unit: "ms", moves: "open-loop latency of search ops (all classes but suggest and snippet), from due time"},
	{name: "query_p99_ms", unit: "ms", moves: "same, 99th percentile (at least 10 samples beyond it)", reportOnly: true},
	{name: "suggest_p50_ms", unit: "ms", moves: "open-loop latency of suggest ops, from due time"},
	{name: "snippet_p50_ms", unit: "ms", moves: "latency of BM25 requests with Snippets, sent one at a time"},
	{name: "search_qps", unit: "ops/s", moves: "closed-loop throughput of the same op mix with nproc clients; median of 0.5 s windows"},
	{name: "update_p50_ms", unit: "ms", moves: "Catalog.Update wall time per tick"},
	{name: "failed_frac", unit: "ratio", moves: "ops failed, timed out or wrong per op attempted", reportOnly: true},
	{name: "heap_mb", unit: "MB", moves: "live Go heap after set-up and a forced GC"},

	{name: "core.filename_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "core.extract_update_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "core.shard_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "walk.list_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "extract.read_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "extract.scan_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "index.insert_ms", unit: "ms", layer: true, moves: "build_mb_s on build"},
	{name: "core.speedup.shared", unit: "x", layer: true, moves: "build_mb_s on build"},
	{name: "core.speedup.join", unit: "x", layer: true, moves: "build_mb_s on build"},
	{name: "core.speedup.replicated", unit: "x", layer: true, moves: "build_mb_s on build"},
	{name: "runtime.alloc_bytes_per_byte", unit: "count", layer: true, moves: "build_mb_s and heap_mb on build"},
	{name: "shard.open_ms", unit: "ms", layer: true, moves: "open_ms on query"},
	{name: "segment.open_ms", unit: "ms", layer: true, moves: "open_ms on query"},
	{name: "search.and_us", unit: "us", layer: true, moves: "query_p50_ms on query; little on fleet"},
	{name: "search.or_us", unit: "us", layer: true, moves: "query_p50_ms on query; little on fleet"},
	{name: "search.not_us", unit: "us", layer: true, moves: "query_p50_ms on query; little on fleet"},
	{name: "search.phrase_us", unit: "us", layer: true, moves: "query_p50_ms on query; little on fleet"},
	{name: "search.prefix_us", unit: "us", layer: true, moves: "query_p50_ms on query; little on fleet"},
	{name: "search.bm25_us", unit: "us", layer: true, moves: "query_p50_ms on query; little on fleet"},
	{name: "search.snippet_us", unit: "us", layer: true, moves: "snippet_p50_ms on query; little on fleet"},
	{name: "search.suggest_us", unit: "us", layer: true, moves: "suggest_p50_ms on query; little on fleet"},
	{name: "search.self_us", unit: "us", layer: true, moves: "query_p50_ms on query"},
	{name: "segment.self_us", unit: "us", layer: true, moves: "query_p50_ms on query"},
	{name: "segment.iter_calls_per_query", unit: "count", layer: true, moves: "query_p50_ms on query"},
	{name: "segment.decodes_per_query", unit: "count", layer: true, moves: "query_p50_ms on query; about 0 on fleet after warm-up"},
	{name: "segment.cache_used_mb", unit: "MB", layer: true, moves: "heap_mb on query"},
	{name: "delta.diff_ms", unit: "ms", layer: true, moves: "update_p50_ms on churn"},
	{name: "delta.apply_ms", unit: "ms", layer: true, moves: "update_p50_ms on churn"},
	{name: "delta.postings_removed", unit: "count", layer: true, moves: "update_p50_ms on churn"},
	{name: "delta.postings_added", unit: "count", layer: true, moves: "update_p50_ms on churn"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", layer: true, moves: "query_p99_ms on query, fleet and churn; build_mb_s on build"},
	{name: "loadgen.late_p99_ms", unit: "ms", layer: true, moves: "none: the validity of every open-loop latency"},
	{name: "trace.overhead_pct", unit: "%", layer: true, moves: "none: traced minus untraced, as a share of untraced"},

	{name: "broker.handler_p50_us", unit: "us", layer: true, only: "fleet", moves: "query_p50_ms on fleet"},
	{name: "server.worker_df_p50_us", unit: "us", layer: true, only: "fleet", moves: "query_p50_ms on fleet"},
	{name: "server.worker_search_p50_us", unit: "us", layer: true, only: "fleet", moves: "query_p50_ms on fleet"},
	{name: "http.client_overhead_us", unit: "us", layer: true, only: "fleet", moves: "query_p50_ms on fleet"},
	{name: "broker.fanout_per_query", unit: "count", layer: true, only: "fleet", moves: "search_qps on fleet"},
	{name: "broker.hedge_ratio", unit: "ratio", layer: true, only: "fleet", moves: "query_p99_ms on fleet"},
	{name: "broker.hedge_win_ratio", unit: "ratio", layer: true, only: "fleet", moves: "query_p99_ms on fleet"},
	{name: "broker.failovers", unit: "count", layer: true, only: "fleet", moves: "failed_frac on fleet"},
	{name: "search.blocked_p50_ms", unit: "ms", layer: true, only: "churn", moves: "query_p99_ms on churn"},
	{name: "search.clear_p50_ms", unit: "ms", layer: true, only: "churn", moves: "query_p99_ms on churn"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a metric or workload: a letter or
// digit, then up to 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric's unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// resultSet returns the metrics a run's result line must carry.
func resultSet(layer bool) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.layer == layer && d.only == "" && !d.reportOnly {
			out = append(out, d)
		}
	}
	return out
}

// checkDefs validates every declared name and unit and rejects duplicates.
func checkDefs() error {
	seen := make(map[string]bool)
	for _, d := range metricDefs {
		if !validName(d.name) || !validUnit(d.unit) {
			return fmt.Errorf("metric %q (unit %q): invalid name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}
