package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/obs"
	"fastbfs/internal/serve"
)

// Telemetry tests: the serve-path latency histograms, per-request trace
// IDs end to end (header -> span -> response), the Prometheus /metrics
// page and the slow-query log.

// promSample matches one sample line of the Prometheus text format.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?[0-9.eE+-]+|\+Inf)$`)

func parsedPromSamples(t *testing.T, page string) int {
	t.Helper()
	n := 0
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("unparseable /metrics line: %q", line)
		}
		n++
	}
	return n
}

// syncBuf is a goroutine-safe buffer for the slow-query log.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestHTTPRequestIDEchoAndMetrics(t *testing.T) {
	_, m, _, ts := newHTTPService(t, serve.Config{})

	// A client-supplied X-Request-Id is adopted and echoed in the header
	// and the JSON body.
	req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{"algorithm":"bfs","root":1}`))
	req.Header.Set("X-Request-Id", "client-req-007")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "client-req-007" {
		t.Fatalf("X-Request-Id echo = %q, want client-req-007", got)
	}
	var hr struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &hr); err != nil || hr.TraceID != "client-req-007" {
		t.Fatalf("body trace_id = %q (%v), want client-req-007", hr.TraceID, err)
	}

	// Without the header the service generates a 16-hex ID; a hostile
	// header (unsafe chars only) is replaced rather than echoed.
	for _, hostile := range []string{"", `"};evil{{`} {
		req, _ = http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{"algorithm":"bfs","root":2}`))
		if hostile != "" {
			req.Header.Set("X-Request-Id", hostile)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) && !regexp.MustCompile(`^[A-Za-z0-9._-]+$`).MatchString(id) {
			t.Fatalf("generated/sanitized trace ID %q is unsafe", id)
		}
		if strings.ContainsAny(id, "\"\n{}") {
			t.Fatalf("hostile header leaked into trace ID %q", id)
		}
		if !bytes.Contains(body, []byte(`"trace_id":"`+id+`"`)) {
			t.Fatalf("body does not carry header trace ID %q: %s", id, body)
		}
	}

	// Errors carry the trace ID too.
	req, _ = http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{"algorithm":"wcc"}`))
	req.Header.Set("X-Request-Id", "bad-req-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-Request-Id") != "bad-req-1" ||
		!bytes.Contains(body, []byte(`"trace_id":"bad-req-1"`)) {
		t.Fatalf("error response lost the trace ID: %d %s", resp.StatusCode, body)
	}

	// /metrics: Prometheus text format with the serve histograms, the
	// counters, and attribution gauges.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if parsedPromSamples(t, string(page)) < 10 {
		t.Fatalf("/metrics page suspiciously small:\n%s", page)
	}
	for _, want := range []string{
		"# TYPE fastbfs_serve_e2e_seconds histogram",
		`fastbfs_serve_e2e_seconds_bucket{algo="bfs",engine="fastbfs",outcome="ok",le="+Inf"}`,
		`fastbfs_serve_wait_seconds_count{algo="bfs",engine="fastbfs",outcome="ok"}`,
		`fastbfs_serve_exec_seconds_sum{algo="bfs",engine="fastbfs",outcome="ok"}`,
		"fastbfs_serve_admitted",
		"fastbfs_uptime_seconds",
		`fastbfs_build_info{go_version="` + runtime.Version() + `",graph="` + m.Name + `",codec="fixed"} 1`,
		"fastbfs_graph_vertices",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Outcome partitioning: the wcc query above was a bad_request; it
	// must land in its own e2e series, not pollute ok.
	if !strings.Contains(string(page), `outcome="bad_request"`) {
		t.Error("/metrics has no bad_request-partitioned series")
	}

	// /healthz: uptime and build info make load-test runs attributable.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status    string  `json:"status"`
		Graph     string  `json:"graph"`
		Vertices  uint64  `json:"vertices"`
		Edges     uint64  `json:"edges"`
		UptimeS   float64 `json:"uptime_s"`
		GoVersion string  `json:"go_version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.GoVersion != runtime.Version() || hz.UptimeS <= 0 || hz.Vertices != m.Vertices || hz.Edges != m.Edges || hz.Graph != m.Name {
		t.Fatalf("healthz attribution fields wrong: %+v", hz)
	}
}

func TestSubmitRecordsHistogramsAndSpans(t *testing.T) {
	vol, m := storedGraph(t)
	col := &obs.Collect{}
	tr := obs.New(col)
	defer tr.Close()
	svc, err := newService(vol, m.Name, serve.Config{Base: smallBase(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1, TraceID: "trace-aa"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "trace-aa" {
		t.Fatalf("result trace ID = %q, want trace-aa", res.TraceID)
	}
	// A generated ID comes back when none is supplied, and a cache hit
	// still gets its own per-request ID.
	res2, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.TraceID == "" || res2.TraceID == "trace-aa" {
		t.Fatalf("cache hit trace: cached=%v id=%q", res2.Cached, res2.TraceID)
	}
	// A malformed query is recorded too.
	if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: "wcc", TraceID: "trace-bad"}); !errors.Is(err, errs.ErrBadOptions) {
		t.Fatal(err)
	}

	// Spans: one serve_query span per Submit, stamped with the trace ID
	// and outcome.
	spans := make(map[string]obs.Event)
	for _, e := range col.Events() {
		if e.Kind == obs.KindSpan && e.Name == "serve_query" {
			spans[e.Trace] = e
		}
	}
	if len(spans) != 3 {
		t.Fatalf("got %d serve_query spans, want 3", len(spans))
	}
	ok := spans["trace-aa"]
	if ok.Labels["outcome"] != "ok" || ok.Labels["algo"] != "bfs" || ok.Labels["engine"] != "fastbfs" {
		t.Fatalf("ok span labels = %v", ok.Labels)
	}
	if ok.Attrs["visited"] == 0 || ok.Dur <= 0 {
		t.Fatalf("ok span attrs/dur = %v %v", ok.Attrs, ok.Dur)
	}
	if spans["trace-bad"].Labels["outcome"] != "bad_request" {
		t.Fatalf("bad span labels = %v", spans["trace-bad"].Labels)
	}
	if hit := spans[res2.TraceID]; hit.Attrs["cached"] != 1 {
		t.Fatalf("cache-hit span attrs = %v", hit.Attrs)
	}

	// Histograms: e2e sees all three outcomes' queries; exec only the
	// one that ran an engine; the ok exemplar carries the trace ID.
	tel := svc.Telemetry()
	byKey := make(map[string]obs.HistogramSnapshot)
	for _, hs := range tel.Histograms {
		byKey[hs.Name+"/"+hs.Labels["outcome"]] = hs
	}
	e2eOK := byKey[obs.HistServeE2E+"/ok"]
	if e2eOK.Count != 2 { // computed + cache hit
		t.Fatalf("e2e ok count = %d, want 2", e2eOK.Count)
	}
	if execOK := byKey[obs.HistServeExec+"/ok"]; execOK.Count != 1 {
		t.Fatalf("exec ok count = %d, want 1 (cache hits run no engine)", execOK.Count)
	}
	if waitOK := byKey[obs.HistServeWait+"/ok"]; waitOK.Count != 1 {
		t.Fatalf("wait ok count = %d, want 1", waitOK.Count)
	}
	if bad := byKey[obs.HistServeE2E+"/bad_request"]; bad.Count != 1 || bad.Labels["algo"] != "invalid" {
		t.Fatalf("bad_request e2e = %+v", bad)
	}
	if e2eOK.Exemplar == nil || e2eOK.Exemplar.Trace == "" {
		t.Fatalf("ok e2e exemplar missing: %+v", e2eOK.Exemplar)
	}

	// Busy rejections land in their own outcome series.
	gate := newWriteGate(vol)
	svc2, err := newService(vol, m.Name, serve.Config{MaxInFlight: 1, MaxQueue: -1, CacheEntries: -1, Base: smallBase(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = svc2.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
	}()
	waitFor(t, func() bool { return svc2.Stats().InFlight == 1 }, "gated query in flight")
	if _, err := svc2.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 2}); !errors.Is(err, errs.ErrBusy) {
		t.Fatalf("saturated submit: %v", err)
	}
	gate.release()
	<-done
	found := false
	for _, hs := range svc2.Telemetry().Histograms {
		if hs.Name == obs.HistServeE2E && hs.Labels["outcome"] == "busy" && hs.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("busy rejection missing from the e2e histogram partitions")
	}
}

func TestSlowQueryLog(t *testing.T) {
	vol, m := storedGraph(t)
	var slow syncBuf
	svc, err := newService(vol, m.Name, serve.Config{
		Base:               smallBase(),
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1, TraceID: "slow-1"}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SlowQueries != 1 {
		t.Fatalf("slow queries = %d, want 1", st.SlowQueries)
	}
	var rec struct {
		Time    string  `json:"t"`
		Trace   string  `json:"trace"`
		Algo    string  `json:"algo"`
		Engine  string  `json:"engine"`
		Outcome string  `json:"outcome"`
		Root    uint32  `json:"root"`
		WaitMs  float64 `json:"wait_ms"`
		ExecMs  float64 `json:"exec_ms"`
		E2EMs   float64 `json:"e2e_ms"`
		Visited uint64  `json:"visited"`
	}
	line := strings.TrimSpace(slow.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query log is not one JSON line (%v): %q", err, line)
	}
	if rec.Trace != "slow-1" || rec.Algo != "bfs" || rec.Engine != "fastbfs" || rec.Outcome != "ok" ||
		rec.Root != 1 || rec.E2EMs <= 0 || rec.ExecMs <= 0 || rec.Visited == 0 || rec.Time == "" {
		t.Fatalf("slow-query record wrong: %+v", rec)
	}
	if rec.E2EMs < rec.ExecMs {
		t.Fatalf("e2e %vms < exec %vms", rec.E2EMs, rec.ExecMs)
	}

	// Below the threshold nothing is logged.
	svc2, err := newService(vol, m.Name, serve.Config{
		Base:               smallBase(),
		SlowQueryThreshold: time.Hour,
		SlowQueryLog:       &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if _, err := svc2.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 2}); err != nil {
		t.Fatal(err)
	}
	if got := slow.String(); strings.TrimSpace(got) != line {
		t.Fatalf("fast query was logged as slow: %q", got)
	}
	if st := svc2.Stats(); st.SlowQueries != 0 {
		t.Fatalf("fast query bumped the slow counter: %d", st.SlowQueries)
	}
}

func TestHTTPSlowQueryLogEmission(t *testing.T) {
	vol, m := storedGraph(t)
	var slow syncBuf
	cfg := serve.Config{
		Base:               smallBase(),
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &slow,
	}
	svc, err := newService(vol, m.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := svc.Handler()
	defer svc.Close()
	_ = vol
	_ = m

	req, _ := http.NewRequest("POST", "/query", strings.NewReader(`{"algorithm":"bfs","root":1}`))
	req.Header.Set("X-Request-Id", "http-slow-9")
	rw := newRecorder()
	mux.ServeHTTP(rw, req)
	if rw.status != http.StatusOK {
		t.Fatalf("query status = %d (%s)", rw.status, rw.body.String())
	}
	if !strings.Contains(slow.String(), `"trace":"http-slow-9"`) {
		t.Fatalf("slow-query log missing the HTTP request's trace ID: %q", slow.String())
	}
}

// newRecorder is a minimal ResponseWriter for in-process handler tests.
type recorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header), status: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.status = code }
