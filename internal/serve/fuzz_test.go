package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fastbfs/internal/core"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// FuzzQueryHandler feeds arbitrary POST /query bodies through the
// service's HTTP handler on a tiny graph. Properties: nothing panics,
// the status is one Handler documents, and every 200 body decodes as a
// query result for the served graph.
func FuzzQueryHandler(f *testing.F) {
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(4, 4, gen.Graph500(), 5)
	if err != nil {
		f.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		f.Fatal(err)
	}
	svc, err := newService(vol, m.Name, serve.Config{Base: core.Options{Base: xstream.Options{
		MemoryBudget: 512, StreamBufSize: 256, Sim: xstream.DefaultSim(),
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	h := svc.Handler()

	for _, body := range []string{
		`{"algorithm":"bfs","root":1,"include_values":true}`,
		`{"algorithm":"bfs","engine":"xstream","root":3,"no_cache":true}`,
		`{"algorithm":"msbfs","roots":[0,1,2,1],"include_values":true}`,
		`{"algorithm":"sssp","root":2,"max_iterations":3,"priority":"batch"}`,
		`{"algorithm":"bfs","root":99}`,
		`{"algorithm":"bfs","root":1,"timeout_ms":10000000000000}`,
		`{"algorithm":"bfs","root":1,"timeout_ms":-5,"allow_stale":true}`,
		`{"algorithm":"pagerank"}`,
		`{"root":`,
		`[]`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("body %q: undocumented status %d (%s)", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var hr struct {
			Graph     string    `json:"graph"`
			Algorithm string    `json:"algorithm"`
			TraceID   string    `json:"trace_id"`
			Visited   uint64    `json:"visited"`
			Levels    []uint32  `json:"levels"`
			Parents   []uint32  `json:"parents"`
			Distances []float32 `json:"distances"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
			t.Fatalf("body %q: 200 response does not decode: %v (%s)", body, err, rec.Body.Bytes())
		}
		if hr.Graph != m.Name || hr.TraceID == "" || hr.Visited > m.Vertices {
			t.Fatalf("body %q: 200 response %+v is not a result for graph %s", body, hr, m.Name)
		}
	})
}

// TestHTTPRejectsOverflowingTimeout pins that a timeout_ms whose
// time.Duration would overflow is a bad request, not a deadline that
// wrapped to the past (which answered 504 at once).
func TestHTTPRejectsOverflowingTimeout(t *testing.T) {
	_, _, _, ts := newHTTPService(t, serve.Config{})
	for _, body := range []string{
		`{"algorithm":"bfs","root":1,"timeout_ms":10000000000000}`,
		`{"algorithm":"bfs","root":1,"timeout_ms":9223372036855}`,
	} {
		if resp, b := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	// The largest representable timeout is still a valid one.
	if resp, b := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1,"timeout_ms":9223372036854}`); resp.StatusCode != http.StatusOK {
		t.Errorf("largest timeout: status = %d (%s), want 200", resp.StatusCode, b)
	}
}
