package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"desksearch"
	"desksearch/internal/loadgen"
	"desksearch/internal/server"
)

// checkSample draws the seeded ops an output check compares: checkOps ops
// from a stream of its own, with a few BM25 ops asking for snippets.
func (r *run) checkSample(vocab []string) ([]benchOp, error) {
	ops, _, err := genOps(r.seed^0xc0ffee, vocab, checkOps)
	if err != nil {
		return nil, err
	}
	markSnippets(ops, 3)
	return ops, nil
}

// markSnippets turns the first n BM25 ops into snippet requests.
func markSnippets(ops []benchOp, n int) {
	for i := range ops {
		if n > 0 && ops[i].Class == loadgen.ClassBM25 {
			ops[i].Snippets = true
			n--
		}
	}
}

// request is op as a desksearch query.
func request(op benchOp) (desksearch.Query, error) {
	if op.Snippets {
		return snippetQuery(op), nil
	}
	q := desksearch.Query{Text: op.Query, Limit: op.Limit}
	if op.Rank != "" {
		rank, err := desksearch.ParseRanking(op.Rank)
		if err != nil {
			return q, err
		}
		q.Ranking = rank
	}
	return q, nil
}

// answer is one op's result in a form two backends can be compared in:
// ranked hits with their scores as raw bits, the total, or suggestions.
type answer struct {
	total int
	hits  []string
}

func (a answer) diff(b answer) string {
	if a.total != b.total {
		return fmt.Sprintf("total %d, want %d", a.total, b.total)
	}
	if i := firstDiff(a.hits, b.hits); i >= 0 {
		return fmt.Sprintf("hit %d: %s, want %s", i, at(a.hits, i), at(b.hits, i))
	}
	return ""
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

func hitKey(path string, file uint32, score float64, terms []string, snippet string) string {
	return fmt.Sprintf("%s#%d score=%016x terms=%s snippet=%q", path, file, math.Float64bits(score), strings.Join(terms, ","), snippet)
}

// catalogAnswer runs op on cat. withIDs keeps file IDs in the hit keys;
// unordered drops the page limit and sorts the hits, for catalogs whose
// file IDs — the ranking's tie-break — legitimately differ.
func catalogAnswer(ctx context.Context, cat *desksearch.Catalog, op benchOp, withIDs, unordered bool) (answer, error) {
	if op.Class == loadgen.ClassSuggest {
		sugs, err := cat.Suggest(ctx, op.Query, op.Limit)
		if err != nil {
			return answer{}, err
		}
		out := answer{total: len(sugs)}
		for _, s := range sugs {
			out.hits = append(out.hits, fmt.Sprintf("%s=%d", s.Term, s.Files))
		}
		return out, nil
	}
	q, err := request(op)
	if err != nil {
		return answer{}, err
	}
	if unordered {
		q.Limit, q.Snippets = 0, false
	}
	resp, err := cat.Query(ctx, q)
	if err != nil {
		return answer{}, err
	}
	out := answer{total: resp.Total}
	for _, h := range resp.Hits {
		var file uint32
		if withIDs {
			file = h.File
		}
		out.hits = append(out.hits, hitKey(h.Path, file, h.Score, h.Terms, snippetText(h.Snippet)))
	}
	if unordered {
		slices.Sort(out.hits)
	}
	return out, nil
}

func snippetText(s *desksearch.Snippet) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%s %v", s.Text, s.Highlights)
}

// httpAnswer is catalogAnswer for a broker's /search response.
func httpAnswer(resp *server.SearchResponse) answer {
	out := answer{total: resp.Total}
	for _, h := range resp.Hits {
		snip := ""
		if h.Snippet != nil {
			spans := make([]desksearch.Span, len(h.Snippet.Highlights))
			for i, s := range h.Snippet.Highlights {
				spans[i] = desksearch.Span{Start: s.Start, End: s.End}
			}
			snip = snippetText(&desksearch.Snippet{Text: h.Snippet.Text, Highlights: spans})
		}
		out.hits = append(out.hits, hitKey(h.Path, 0, h.Score, h.Terms, snip))
	}
	return out
}

// suggestAnswer is catalogAnswer for a broker's /suggest response.
func suggestAnswer(resp *server.SuggestResponse) answer {
	out := answer{total: len(resp.Suggestions)}
	for _, s := range resp.Suggestions {
		out.hits = append(out.hits, fmt.Sprintf("%s=%d", s.Term, s.Files))
	}
	return out
}

// compare runs every op through got and want and records each op as
// attempted, and as failed when the two disagree or either errs.
func (r *run) compare(what string, ops []benchOp, got, want func(context.Context, benchOp) (answer, error)) {
	ctx := context.Background()
	for _, op := range ops {
		r.attempted++
		g, err := got(ctx, op)
		if err == nil {
			var w answer
			if w, err = want(ctx, op); err == nil {
				if d := g.diff(w); d != "" {
					err = fmt.Errorf("%s", d)
				}
			}
		}
		if err != nil {
			r.failed++
			r.problemf("%s: %s %q: %v", what, op.class(), op.Query, err)
		}
	}
}
