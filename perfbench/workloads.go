package main

import "time"

// workload is one seeded benchmark scenario. Its parameters are fixed
// here, next to the reason it was chosen, so a later change cannot shift
// them silently; the run prints them with its result.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists (BENCHMARK.json
	// repeats it).
	why string
	// scale sizes the corpus relative to the paper's (internal/corpus
	// PaperSpec: about 51,000 files, 869 MB, five large files carrying 30%
	// of the bytes, Zipf 1.2).
	scale float64
	// shards is Options.Shards of every build.
	shards int
	// cacheBytes is the OpenDir block-cache budget of the served catalog;
	// 0 keeps the package default (64 MiB).
	cacheBytes int64
	// rate is the open-loop op rate, in ops per second.
	rate float64
	// snippets is how many BM25 requests with snippets the run sends, one
	// at a time, after its serving phases.
	snippets int
	// tick and tickFiles pace the writer: each tick rewrites, adds or
	// deletes tickFiles files and calls Catalog.Update. On churn the ticks
	// run beside the queries; elsewhere the ticks run back to back on
	// an idle heap catalog, so update_p50_ms exists on every workload.
	tick      time.Duration
	tickFiles int
	// idleTicks is how many idle update ticks a workload other than churn
	// runs.
	idleTicks int
	// unsteady, when set, says why the workload is left out of
	// BENCHMARK.json: it runs and checks like the others, but its figures
	// move between runs by more than any bound the benchmark may set.
	unsteady string
	run      func(*run) error
}

var workloads = []*workload{
	{
		name:  "build",
		why:   "the paper's own axis: repeated IndexFS of a 1/16-scale corpus through walk, extract, index, core and the shard write path, with no query layer",
		scale: 1.0 / 16, shards: 4,
		rate: 300, snippets: 11,
		tickFiles: 8, idleTicks: 10,
		run: runBuild,
	},
	{
		name:  "query",
		why:   "lazy OpenDir of a 1/32-scale catalog with a 4 MiB block cache, well below the decoded working set, so decode, verification, iterators and evaluation dominate",
		scale: 1.0 / 32, shards: 4, cacheBytes: 4 << 20,
		rate: 200, snippets: 11,
		tickFiles: 8, idleTicks: 20,
		run: runQuery,
	},
	{
		name:  "fleet",
		why:   "the same directory behind a broker over two shard groups of three loopback workers each, cache warm, so the broker hop, worker HTTP and hedging dominate",
		scale: 1.0 / 32, shards: 4,
		rate: 200, snippets: 21,
		tickFiles: 8, idleTicks: 20,
		run: runFleet,
	},
	{
		name:  "churn",
		why:   "a 1/64-scale heap catalog queried on an open loop while a writer updates it every tick, so read-side gains that cost updates (or the reverse) show",
		scale: 1.0 / 64, shards: 4,
		rate: 150, snippets: 75,
		tick: time.Second, tickFiles: 8,
		unsteady: "on a 2-core VM, across 10 seeds, the interquartile range of its query_p50_ms and suggest_p50_ms reached 80% and 570% of the median " +
			"(ops queue behind the lock each Apply holds, and in a slow stretch the queue stops draining) and that of update_p50_ms, " +
			"search_qps and snippet_p50_ms stayed at 27-79% after the tick was slowed to 1 s; it waits on the snapshot-engine work",
		run: runChurn,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
