package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
)

// TestHTTPServesDeltaGraph serves a delta-encoded, degree-reordered
// graph end to end: plain BFS, an explicit multi-root MS-BFS query, and
// concurrent BFS queries coalesced into one shared batch all answer
// over HTTP with exactly the results the serial engines produce, while
// /healthz reports the stored codec. Everything the wire carries is in
// the caller's original vertex labels — the degree permutation must be
// invisible outside the process.
func TestHTTPServesDeltaGraph(t *testing.T) {
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{
		Codec: graph.CodecDelta, Reverse: true, ReorderByDegree: true,
	}); err != nil {
		t.Fatal(err)
	}

	// Cache off so the concurrent queries below actually ride a batch;
	// a long hold window lets them coalesce deterministically.
	cfg := serve.Config{CacheEntries: -1, BatchSize: 32, BatchWait: 300 * time.Millisecond, Base: smallBase()}
	svc, err := newService(vol, m.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { svc.Close() })

	type valued struct {
		Visited uint64   `json:"visited"`
		Batched bool     `json:"batched"`
		Levels  []uint32 `json:"levels"`
		Parents []uint32 `json:"parents"`
	}
	decode := func(body []byte) valued {
		t.Helper()
		var v valued
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("response is not JSON (%v): %.120s", err, body)
		}
		return v
	}

	// Plain BFS against the serial engine reference on the same volume.
	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)
	resp, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1,"include_values":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bfs on delta graph: status = %d (%s)", resp.StatusCode, body)
	}
	hr := decode(body)
	if hr.Visited != want.Visited || !reflect.DeepEqual(hr.Levels, want.Levels) {
		t.Fatal("bfs over HTTP differs from the serial reference on the delta graph")
	}
	for i, p := range want.Parents {
		if hr.Parents[i] != uint32(p) {
			t.Fatalf("parent[%d] = %d over HTTP, want %d", i, hr.Parents[i], p)
		}
	}

	// Explicit multi-root MS-BFS.
	roots := []graph.VertexID{1, 2, 7, 19}
	wantLv, wantPar := refMSBFS(t, vol, m.Name, roots)
	resp, body = postQuery(t, ts.URL, `{"algorithm":"msbfs","roots":[1,2,7,19],"include_values":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("msbfs on delta graph: status = %d (%s)", resp.StatusCode, body)
	}
	mr := decode(body)
	if !reflect.DeepEqual(mr.Levels, wantLv) {
		t.Fatal("msbfs levels over HTTP differ from the serial reference")
	}
	for i, p := range wantPar {
		if mr.Parents[i] != uint32(p) {
			t.Fatalf("msbfs parent[%d] = %d over HTTP, want %d", i, mr.Parents[i], p)
		}
	}

	// Concurrent BFS queries coalesce into one shared bit-parallel run.
	batchRoots := []graph.VertexID{3, 9, 27, 81}
	results := make(chan struct {
		root graph.VertexID
		v    valued
		code int
	}, len(batchRoots))
	for _, r := range batchRoots {
		go func(r graph.VertexID) {
			q := struct {
				Algorithm     string `json:"algorithm"`
				Root          uint32 `json:"root"`
				IncludeValues bool   `json:"include_values"`
			}{"bfs", uint32(r), true}
			b, _ := json.Marshal(q)
			var out struct {
				root graph.VertexID
				v    valued
				code int
			}
			out.root = r
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				out.code = resp.StatusCode
				json.Unmarshal(body, &out.v)
			}
			results <- out
		}(r)
	}
	for range batchRoots {
		out := <-results
		if out.code != http.StatusOK {
			t.Fatalf("batched bfs root %d: status = %d", out.root, out.code)
		}
		if !out.v.Batched {
			t.Errorf("root %d did not ride a batch", out.root)
		}
		want := refBFS(t, serve.EngineFastBFS, vol, m.Name, out.root)
		if out.v.Visited != want.Visited || !reflect.DeepEqual(out.v.Levels, want.Levels) {
			t.Fatalf("batched bfs root %d differs from its serial run", out.root)
		}
		for i, p := range want.Parents {
			if out.v.Parents[i] != uint32(p) {
				t.Fatalf("batched bfs root %d: parent[%d] = %d, want %d", out.root, i, out.v.Parents[i], p)
			}
		}
	}
	if st := svc.Stats(); st.BatchQueries < int64(len(batchRoots)) {
		t.Fatalf("BatchQueries = %d, want at least %d", st.BatchQueries, len(batchRoots))
	}

	// /healthz names the stored encoding.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status    string `json:"status"`
		Codec     string `json:"codec"`
		Reordered bool   `json:"reordered"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Codec != "delta" || !hz.Reordered {
		t.Fatalf("healthz = %d %+v, want ok/delta/reordered", hresp.StatusCode, hz)
	}
}
