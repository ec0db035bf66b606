package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"

	"desksearch"
	"desksearch/internal/broker"
	"desksearch/internal/loadgen"
	"desksearch/internal/server"
)

// fleetGroups splits a 4-shard directory into two disjoint shard groups;
// each group is served by fleetReplicas workers.
var fleetGroups = [][]int{{0, 2}, {1, 3}}

// fleetReplicas is three, not two: every worker lives in this one process,
// so a stall of the process (a descheduled VM, say) holds a group's
// primary attempt and its hedge alike past the broker's 50 ms attempt
// timeout, and only a failover to a third replica, started after the
// stall, lets the request succeed. Stopping the process for 80 ms every
// 0.7 s failed ops with two replicas; with three, 150 ms stops did not.
const fleetReplicas = 3

// opHeader carries a benchmark op's ID from the client into the broker's
// handler, so a traced run can pair the two spans.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// fleet is a broker over loopback workers, all in this process.
type fleet struct {
	cats    []*desksearch.Catalog
	servers []*httptest.Server
	broker  *httptest.Server
	client  *http.Client
}

// startFleet opens dir's shard groups in worker catalogs behind
// server.Config{Worker: true} loopback servers and puts a broker, checked
// with CheckTopology, in front of them.
func (r *run) startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	var groups [][]string
	for _, shards := range fleetGroups {
		var urls []string
		for rep := 0; rep < fleetReplicas; rep++ {
			cat, err := desksearch.OpenDirShards(dir, shards, desksearch.Options{BlockCacheBytes: r.w.cacheBytes})
			if err != nil {
				f.close()
				return nil, fmt.Errorf("worker open: %w", err)
			}
			f.cats = append(f.cats, cat)
			srv := httptest.NewServer(r.traceHandler("worker", server.New(server.Config{Catalog: cat, Worker: true}).Handler()))
			f.servers = append(f.servers, srv)
			urls = append(urls, srv.URL)
		}
		groups = append(groups, urls)
	}
	b, err := broker.New(broker.Config{Groups: groups})
	if err == nil {
		err = b.CheckTopology(context.Background())
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("broker: %w", err)
	}
	f.broker = httptest.NewServer(r.traceHandler("broker", b.Handler()))
	f.client = &http.Client{Transport: opTransport{&http.Transport{MaxIdleConnsPerHost: 4 * r.clients}}}
	return f, nil
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.broker != nil {
		f.broker.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, c := range f.cats {
		c.Close()
	}
}

// traceHandler wraps a server's or broker's handler with a span per
// request on a traced phase, named after the role and the path.
func (r *run) traceHandler(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tracer()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		op, _ := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
		sp := tr.begin(role+" "+req.URL.Path, 0, op)
		h.ServeHTTP(w, req)
		sp.end()
	})
}

// opTransport stamps each request with the op ID its context carries.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(opKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// fleetDo executes ops against the broker through loadgen's HTTPTarget
// (snippet requests, which it does not model, through search).
func (r *run) fleetDo(f *fleet) doFunc {
	target := &loadgen.HTTPTarget{BaseURL: f.broker.URL, Client: f.client}
	return func(ctx context.Context, id int64, op benchOp) error {
		ctx = context.WithValue(ctx, opKey{}, id)
		sp := r.tracer().begin("op."+op.class(), 0, id)
		defer sp.end()
		if op.Snippets {
			_, err := f.search(ctx, op)
			return err
		}
		return target.Do(ctx, op.Op)
	}
}

// checkFleet compares the broker's answers to the sample's search ops with
// the single node's. Suggest answers and snippet requests are only noted:
// the broker merges each group's top n suggestions, and it cannot carry a
// snippet request at all (see README.md).
func (r *run) checkFleet(f *fleet, single *desksearch.Catalog, sample []benchOp) {
	ctx := context.Background()
	var search []benchOp
	differ := 0
	for _, op := range sample {
		if op.Class != loadgen.ClassSuggest {
			op.Snippets = false
			search = append(search, op)
			continue
		}
		got, err := f.suggest(ctx, op)
		want, werr := catalogAnswer(ctx, single, op, false, false)
		if err != nil || werr != nil || suggestAnswer(got).diff(want) != "" {
			differ++
		}
	}
	r.notef("fleet suggest answers differing from single node (not a failed check): %d of the sample", differ)
	r.compare("fleet: broker vs single node", search,
		func(ctx context.Context, op benchOp) (answer, error) {
			resp, err := f.search(ctx, op)
			if err != nil {
				return answer{}, err
			}
			return httpAnswer(resp), nil
		},
		func(ctx context.Context, op benchOp) (answer, error) {
			return catalogAnswer(ctx, single, op, false, false)
		})
	// Last, because the workers keep evaluating a request the broker has
	// given up on.
	snip := search[0]
	snip.Snippets = true
	if _, err := f.search(ctx, snip); err != nil {
		r.notef("a snippet request through the broker fails (not a failed check): %v", err)
	}
}

// search sends op to the broker's /search and decodes the answer.
func (f *fleet) search(ctx context.Context, op benchOp) (*server.SearchResponse, error) {
	v := url.Values{"q": {op.Query}, "limit": {strconv.Itoa(op.Limit)}}
	if op.Rank != "" {
		v.Set("rank", op.Rank)
	}
	if op.Snippets {
		v.Set("rank", "bm25")
		v.Set("snippets", "true")
	}
	var out server.SearchResponse
	return &out, f.get(ctx, "/search?"+v.Encode(), &out)
}

// suggest sends a suggest op to the broker's /suggest.
func (f *fleet) suggest(ctx context.Context, op benchOp) (*server.SuggestResponse, error) {
	v := url.Values{"q": {op.Query}, "n": {strconv.Itoa(op.Limit)}}
	var out server.SuggestResponse
	return &out, f.get(ctx, "/suggest?"+v.Encode(), &out)
}

// stats fetches the broker's /stats.
func (f *fleet) stats() (*broker.StatsResponse, error) {
	var out broker.StatsResponse
	return &out, f.get(context.Background(), "/stats", &out)
}

func (f *fleet) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.broker.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
