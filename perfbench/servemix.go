package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs"
	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/obs"
	"fastbfs/internal/xstream"
)

// serveSize holds the serve-mixed load settings.
type serveSize struct {
	// lowQPS and highQPS are the two fixed offered rates.
	lowQPS, highQPS float64
	// clients is the number of closed-loop callers that saturate the
	// service: one per execution slot, so every slot stays busy and no
	// request waits in the admission queue. More callers raise the
	// throughput a little through batching but make the peak RSS swing
	// with how many batched runs coincide.
	clients int
}

var fullServe = serveSize{lowQPS: 20, highQPS: 35, clients: 4}

var tinyServe = serveSize{lowQPS: 20, highQPS: 40, clients: 4}

// hotSetSize is the hot set of cmd/loadgen's "mixed" shape.
const hotSetSize = 16

// maxOutstanding caps the open-loop generator's requests in flight at
// the service's queue places: with at most that many out, neither the
// admission queue nor the batcher's bound on pending batches (both 8)
// can be exceeded.
const maxOutstanding = 8

// serviceConfig is cmd/fastbfsd's default configuration, every field
// set explicitly: batch 32, 2 ms batch wait, 64 cache entries, 4
// queries in flight and 8 queued, 1 GiB budget, wall clock.
func serviceConfig(codec fastbfs.Codec, tr *obs.Tracer) fastbfs.ServiceConfig {
	return fastbfs.ServiceConfig{
		MaxInFlight:      4,
		MaxQueue:         8,
		CacheEntries:     64,
		BatchSize:        32,
		BatchWait:        2 * time.Millisecond,
		BreakerThreshold: 5,
		Base: core.Options{
			Base: xstream.Options{
				MemoryBudget:    1 << 30,
				Threads:         4,
				StreamBufSize:   1 << 20,
				PrefetchBuffers: 2,
				ScatterWorkers:  workers(),
				Direction:       xstream.DirectionTopDown,
				Codec:           codec,
			},
			ResidencyBudget: core.ResidencyOff,
		},
		Tracer: tr,
	}
}

// serveQuery is one POST /query body.
type serveQuery struct {
	Algorithm     string   `json:"algorithm"`
	Root          uint32   `json:"root,omitempty"`
	Roots         []uint32 `json:"roots,omitempty"`
	IncludeValues bool     `json:"include_values"`
}

func (q serveQuery) key() string { return fmt.Sprint(q.Algorithm, q.Root, q.Roots) }

// arrival is one scheduled request.
type arrival struct {
	at time.Duration // offset from the phase start
	q  serveQuery
}

// schedule draws a Poisson arrival stream at rate qps for d from rng.
func schedule(rng *rand.Rand, qps float64, d time.Duration, hot, cold []uint32) []arrival {
	var out []arrival
	var deck []serveQuery
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
		if t >= d {
			return out
		}
		if len(deck) == 0 {
			deck = drawDeck(rng, hot, cold)
		}
		out = append(out, arrival{at: t, q: deck[0]})
		deck = deck[1:]
	}
}

// drawDeck draws ten queries of cmd/loadgen's "mixed" shape in exact
// proportions, shuffled: six BFS and two SSSP, half from hot roots and
// half from cold ones, and two MSBFS over four roots, each hot with
// probability one half. Exact proportions keep the share of cache hits,
// and so the latency median, from swinging with the draw.
func drawDeck(rng *rand.Rand, hot, cold []uint32) []serveQuery {
	pick := func(from []uint32) uint32 { return from[rng.Intn(len(from))] }
	var deck []serveQuery
	for i, algo := range []string{"bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "sssp", "sssp"} {
		from := cold
		if i%2 == 0 {
			from = hot
		}
		deck = append(deck, serveQuery{Algorithm: algo, Root: pick(from), IncludeValues: true})
	}
	for i := 0; i < 2; i++ {
		q := serveQuery{Algorithm: "msbfs", IncludeValues: true}
		for j := 0; j < 4; j++ {
			from := cold
			if rng.Intn(2) == 0 {
				from = hot
			}
			q.Roots = append(q.Roots, pick(from))
		}
		deck = append(deck, q)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// outcome is what one request observed.
type outcome struct {
	status    int
	latMS     float64 // from the scheduled send time
	lateMS    float64 // how late the send ran behind schedule
	handlerMS float64 // ServeHTTP alone
	bodyBytes int
	digest    uint32
	traceID   string
	algorithm string
	cached    bool
}

// serveRun is the state of one serve-mixed run.
type serveRun struct {
	cfg runConfig
	g   *storedGraph
	csr *bfs.CSR
	// hot is the hot set; cold holds the other roots, all with an
	// out-edge, so a cache miss always traverses the graph.
	hot, cold []uint32
	rep       *report
	seq       int
	// refs memoizes the digest of each query's correct answer; csrMS
	// collects the reference BFS times.
	refs  map[string]uint32
	csrMS []float64
	// rt and requests accumulate over phases: the Go runtime counters
	// and the number of requests they cover.
	rt       rtCounters
	requests int
}

func runServeMixed(ctx context.Context, cfg runConfig) (*report, error) {
	gen := func(cfg runConfig) (fastbfs.Meta, []fastbfs.Edge, error) {
		return fastbfs.GenerateRMAT(cfg.size.serveScale, cfg.size.serveEdgeFactor, graphSeed)
	}
	s := &serveRun{
		cfg:  cfg,
		rep:  &report{endToEnd: metricSet{}, perLayer: metricSet{}},
		refs: map[string]uint32{},
	}
	// Set-up: store the graph, open the service and warm its cache with
	// the hot set, several times; the last service is measured.
	var svc *fastbfs.Service
	var setupTimes []float64
	for i := 0; setUpMore(cfg, setupTimes); i++ {
		if svc != nil {
			if err := shutdown(svc); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(s.g.dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		g, err := storeGraph(ctx, cfg, filepath.Join(cfg.workdir, fmt.Sprintf("serve%d", i)), gen, rmatStore)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.g = g
		if s.hot == nil {
			for i, r := range seededRoots(cfg, g.meta, g.edges) {
				if i < hotSetSize {
					s.hot = append(s.hot, uint32(r))
				} else {
					s.cold = append(s.cold, uint32(r))
				}
			}
		}
		svc, err = fastbfs.NewService(g.vol, g.meta.Name, serviceConfig(g.meta.Codec, nil))
		if err != nil {
			return nil, err
		}
		if err := s.warm(svc); err != nil {
			svc.Shutdown(context.Background())
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer svc.Shutdown(context.Background())
	if err := s.g.loadStoredMeta(); err != nil {
		return nil, err
	}
	csr, err := bfs.BuildCSR(s.g.meta, s.g.edges)
	if err != nil {
		return nil, err
	}
	s.csr = csr
	s.rep.note("graph %s: %d vertices, %d edges, codec %s", s.g.meta.Name, s.g.meta.Vertices, s.g.meta.Edges, s.g.meta.Codec)

	if cfg.trace {
		return s.rep, s.traced(ctx, svc)
	}

	// One closed-loop caller first: each request meets an otherwise idle
	// service, so query_ms is the serve path's own latency (admission,
	// cache, batch hold, engine, JSON) without queueing. Then the two
	// open-loop rates, then the saturating callers that set max_qps.
	secs := cfg.seconds / 20
	s.rt, s.requests = rtCounters{}, 0
	solo, _, err := s.saturate(svc, 1, 7*secs)
	if err != nil {
		return nil, err
	}
	allocMB := ratio(float64(s.rt.allocBytes)/1e6, float64(s.requests))
	low, lowDropped, err := s.phase(svc, cfg.size.serve.lowQPS, 4*secs)
	if err != nil {
		return nil, err
	}
	high, highDropped, err := s.phase(svc, cfg.size.serve.highQPS, 3*secs)
	if err != nil {
		return nil, err
	}
	sat, maxQPS, err := s.saturate(svc, cfg.size.serve.clients, 6*secs)
	if err != nil {
		return nil, err
	}

	lowLat, highLat := lats(low), lats(high)
	all := append(append([]outcome(nil), low...), high...)
	m := s.rep.endToEnd
	m.set("setup_s", median(setupTimes), "s")
	m.set("query_ms.p50", median(lats(solo)), "ms")
	m.set("query_ms.p90", quantile(lats(solo), 0.9), "ms")
	m.set("alloc_mb_per_query", allocMB, "MB")
	m.set("max_rss_mb", maxRSSMB(), "MB")
	m.set("max_qps", maxQPS, "1/s")
	s.rep.note("%d requests at %g/s (low) and %d at %g/s (high); %d and %d arrivals dropped at the generator's cap of %d outstanding",
		len(low), cfg.size.serve.lowQPS, len(high), cfg.size.serve.highQPS, lowDropped, highDropped, maxOutstanding)
	s.rep.note("p50_ms.low %.4g ms, p90_ms.low %.4g ms, p50_ms.high %.4g ms, p99_ms.high %.4g ms",
		median(lowLat), quantile(lowLat, 0.9), median(highLat), quantile(highLat, 0.99))
	s.rep.note("%d callers: %d answers, max_qps %.4g 1/s, p50 %.4g ms, p99 %.4g ms",
		cfg.size.serve.clients, len(sat), maxQPS, median(lats(sat)), quantile(lats(sat), 0.99))
	s.rep.note("one caller: %d answers; medians by kind: %s", len(solo), byKind(solo))
	s.rep.note("low rate, medians by kind: %s", byKind(low))
	s.rep.note("loadgen late_ms.p99 %.4g ms", quantile(lates(all), 0.99))
	s.rep.note("fail_ratio %.4g (%d of %d)", ratio(float64(s.rep.failed), float64(s.rep.attempted)), s.rep.failed, s.rep.attempted)
	return s.rep, nil
}

func shutdown(svc *fastbfs.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return svc.Shutdown(ctx)
}

// warm sends each hot root's BFS and SSSP once, in turn, so the cache
// holds the hot set before anything is timed.
func (s *serveRun) warm(svc *fastbfs.Service) error {
	h := svc.Handler()
	for _, r := range s.hot {
		for _, algo := range []string{"bfs", "sssp"} {
			o := send(h, serveQuery{Algorithm: algo, Root: r, IncludeValues: true}, "warm")
			if o.status != http.StatusOK {
				return fmt.Errorf("warm-up %s from %d: HTTP %d", algo, r, o.status)
			}
		}
	}
	return nil
}

// send runs one request through the handler in-process.
func send(h http.Handler, q serveQuery, traceID string) outcome {
	body, _ := json.Marshal(q) // a struct of strings and integers always encodes
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", traceID)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	o := outcome{status: rec.Code, handlerMS: ms(time.Since(start)), bodyBytes: rec.Body.Len(), traceID: traceID, algorithm: q.Algorithm}
	if rec.Code == http.StatusOK {
		o.digest = digest(valueField(rec.Body.Bytes(), answerField(q.Algorithm)))
		o.cached = bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`))
	}
	return o
}

// phase offers Poisson traffic at qps for d from one scheduling
// goroutine, each request on its own goroutine, waits for every
// request, then checks every answer. Like cmd/loadgen, the generator
// drops an arrival, and counts it, while maxOutstanding requests are
// already out: the service's admission (4 slots, 8 queue places) then
// never has to refuse, so a host stall shows as dropped arrivals and
// late answers rather than as failed requests.
func (s *serveRun) phase(svc *fastbfs.Service, qps float64, d time.Duration) (answers []outcome, dropped int, err error) {
	s.seq++
	rng := rand.New(rand.NewSource(s.cfg.seed*1000 + int64(s.seq)))
	arrivals := schedule(rng, qps, d, s.hot, s.cold)
	out := make([]outcome, len(arrivals))
	sentQ := make([]bool, len(arrivals))
	h := svc.Handler()
	slots := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	before := sampleRuntime(s.cfg.trace)
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		select {
		case slots <- struct{}{}:
		default:
			dropped++
			continue
		}
		sentQ[i] = true
		wg.Add(1)
		go func(i int, q serveQuery, id string) {
			defer wg.Done()
			sent := time.Now()
			o := send(h, q, id)
			<-slots
			o.latMS = ms(time.Since(due))
			o.lateMS = ms(sent.Sub(due))
			out[i] = o
		}(i, a.q, fmt.Sprintf("p%d-%d", s.seq, i))
	}
	wg.Wait()
	s.rt.add(before, sampleRuntime(s.cfg.trace))
	var qs []serveQuery
	for i, a := range arrivals {
		if sentQ[i] {
			qs = append(qs, a.q)
			answers = append(answers, out[i])
		}
	}
	s.requests += len(answers)
	return answers, dropped, s.verify(qs, answers)
}

// saturate runs `clients` closed-loop callers for d: each sends its
// next query as soon as its previous one is answered, so the service
// runs at capacity and never has to refuse.
func (s *serveRun) saturate(svc *fastbfs.Service, clients int, d time.Duration) (answers []outcome, qps float64, err error) {
	s.seq++
	rng := rand.New(rand.NewSource(s.cfg.seed*1000 + int64(s.seq)))
	// Enough queries for any plausible rate; callers stop at d.
	var qs []serveQuery
	for len(qs) < int(d.Seconds()*1000)+10 {
		qs = append(qs, drawDeck(rng, s.hot, s.cold)...)
	}
	h := svc.Handler()
	out := make([]outcome, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	before := sampleRuntime(s.cfg.trace)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				// Each index is claimed by one caller, which answers it
				// before it looks at the clock again.
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				sent := time.Now()
				o := send(h, qs[i], fmt.Sprintf("p%d-%d", s.seq, i))
				o.latMS = ms(time.Since(sent))
				out[i] = o
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	s.rt.add(before, sampleRuntime(s.cfg.trace))
	n := min(int(next.Load()), len(qs))
	answers, qs = out[:n], qs[:n]
	s.requests += n
	ok := 0
	for _, o := range answers {
		if o.status == http.StatusOK {
			ok++
		}
	}
	return answers, float64(ok) / elapsed.Seconds(), s.verify(qs, answers)
}

// verify counts every request as attempted, a refused or failed one as
// failed, and checks every answer against the reference.
func (s *serveRun) verify(qs []serveQuery, out []outcome) error {
	for i, o := range out {
		q := qs[i]
		s.rep.attempted++
		if o.status != http.StatusOK {
			s.rep.failed++
			s.rep.note("%s request refused: HTTP %d", q.Algorithm, o.status)
			continue
		}
		want, err := s.expected(q)
		if err != nil {
			return err
		}
		if o.digest != want {
			s.rep.failed++
			s.rep.wrong++
			s.rep.note("wrong %s answer for %s", q.Algorithm, q.key())
		}
	}
	return nil
}

// expected returns the digest of q's correct answer. Only digests are
// kept, so the benchmark's own memory does not grow with the number of
// distinct roots.
func (s *serveRun) expected(q serveQuery) (uint32, error) {
	k := q.key()
	if d, ok := s.refs[k]; ok {
		return d, nil
	}
	d, err := expectedDigest(q, func(r fastbfs.VertexID) []uint32 {
		start := time.Now()
		l := bfs.RunCSR(s.g.meta, s.csr, r).Level
		s.csrMS = append(s.csrMS, ms(time.Since(start)))
		return l
	})
	if err != nil {
		return 0, err
	}
	s.refs[k] = d
	return d, nil
}

func lats(out []outcome) []float64 {
	xs := make([]float64, 0, len(out))
	for _, o := range out {
		if o.status == http.StatusOK {
			xs = append(xs, o.latMS)
		}
	}
	return xs
}

func lates(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		xs[i] = o.lateMS
	}
	return xs
}

// traced is the serve-mixed traced run: the lone closed-loop caller on
// the untraced service (the overhead baseline), then the lone caller,
// the low rate and the high rate on a second service over the same
// graph whose tracer keeps spans in memory and whose volume is timed
// from outside.
func (s *serveRun) traced(ctx context.Context, plain *fastbfs.Service) error {
	part := s.cfg.seconds / 4
	base, _, err := s.saturate(plain, 1, part)
	if err != nil {
		return err
	}
	col := &obs.Collect{}
	tr := obs.New(col)
	tv := newTimedVolume(s.g.vol)
	svc, err := fastbfs.NewService(tv, s.g.meta.Name, serviceConfig(s.g.meta.Codec, tr))
	if err != nil {
		return err
	}
	defer svc.Shutdown(context.Background())
	if err := s.warm(svc); err != nil {
		return err
	}
	events0 := len(col.Events())
	io0, st0 := tv.totals(), svc.Stats()
	s.rt, s.requests = rtCounters{}, 0
	solo, _, err := s.saturate(svc, 1, part)
	if err != nil {
		return err
	}
	low, lowDropped, err := s.phase(svc, s.cfg.size.serve.lowQPS, part)
	if err != nil {
		return err
	}
	high, highDropped, err := s.phase(svc, s.cfg.size.serve.highQPS, part)
	if err != nil {
		return err
	}
	io, st := tv.totals().sub(io0), svc.Stats()
	events := col.Events()[events0:]
	if err := writeTrace(s.cfg.traceFile, events); err != nil {
		return err
	}

	m := s.rep.perLayer
	all := append(append(append([]outcome(nil), solo...), low...), high...)
	n := float64(len(all))
	per := func(x float64) float64 { return ratio(x, n) }
	m.set("storage.read_mb_per_query", per(float64(io.read)/1e6), "MB")
	m.set("storage.write_mb_per_query", per(float64(io.written)/1e6), "MB")
	m.set("storage.busy_ms_per_query", per(ms(io.busy)), "ms")
	m.set("storage.opens_per_query", per(float64(io.opens)), "count")
	if err := graphLayer(m, s.g); err != nil {
		return err
	}

	// Serve-layer figures from the serve_query and serve_batch spans.
	var wait, exec, msbfs, sssp, batchRoots, batchMS []float64
	spanMS := map[string]float64{}
	for _, e := range events {
		if e.Kind != obs.KindSpan {
			continue
		}
		switch e.Name {
		case "serve_query":
			spanMS[e.Trace] = e.Dur * 1e3
			if e.Attrs["cached"] == 1 {
				continue
			}
			wait = append(wait, float64(e.Attrs["wait_us"])/1e3)
			if x := float64(e.Attrs["exec_us"]) / 1e3; x > 0 {
				exec = append(exec, x)
				switch e.Labels["algo"] {
				case "msbfs":
					msbfs = append(msbfs, x)
				case "sssp":
					sssp = append(sssp, x)
				}
			}
		case "serve_batch":
			batchRoots = append(batchRoots, float64(e.Attrs["roots"]))
			batchMS = append(batchMS, e.Dur*1e3)
		}
	}
	var overhead, kb []float64
	for _, o := range all {
		if d, ok := spanMS[o.traceID]; ok && o.status == http.StatusOK {
			overhead = append(overhead, o.handlerMS-d)
		}
		kb = append(kb, float64(o.bodyBytes)/1e3)
	}
	m.set("serve.queue_wait_ms.p50", median(wait), "ms")
	m.set("serve.queue_wait_ms.p99", quantile(wait, 0.99), "ms")
	m.set("serve.exec_ms.p50", median(exec), "ms")
	m.set("serve.batch_roots_mean", mean(batchRoots), "count")
	m.set("serve.batch_pass_ms.p50", median(batchMS), "ms")
	hits, misses := st.CacheHits-st0.CacheHits, st.CacheMisses-st0.CacheMisses
	m.set("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.set("serve.rejected", float64(st.Rejected-st0.Rejected), "count")
	m.set("serve.low_ms.p50", median(lats(low)), "ms")
	m.set("serve.high_ms.p50", median(lats(high)), "ms")
	m.set("serve.high_ms.p99", quantile(lats(high), 0.99), "ms")
	m.set("algo.msbfs_ms.p50", median(msbfs), "ms")
	m.set("algo.sssp_ms.p50", median(sssp), "ms")
	m.set("http.handler_overhead_ms.p50", median(overhead), "ms")
	m.set("http.response_kb.p50", median(kb), "kB")
	m.set("loadgen.late_ms.p99", quantile(lates(append(append([]outcome(nil), low...), high...)), 0.99), "ms")
	m.set("loadgen.dropped", float64(lowDropped+highDropped), "count")
	floor := median(s.csrMS)
	m.set("bfs.csr_ms.p50", floor, "ms")
	m.set("bfs.floor_ratio", ratio(median(lats(base)), floor), "ratio")
	s.rt.setRuntimeLayer(m, s.requests)
	m.set("trace.overhead_ms", median(lats(solo))-median(lats(base)), "ms")
	s.rep.note("%d untraced and %d traced requests; %d serve spans, %d batch passes", len(base), len(all), len(spanMS), len(batchMS))
	return nil
}

// byKind formats the count and median latency of each algorithm's
// cache hits and misses.
func byKind(out []outcome) string {
	groups := map[string][]float64{}
	for _, o := range out {
		k := o.algorithm + "/miss"
		if o.cached {
			k = o.algorithm + "/hit"
		}
		groups[k] = append(groups[k], o.latMS)
	}
	var b []byte
	for _, k := range []string{"bfs/hit", "bfs/miss", "sssp/hit", "sssp/miss", "msbfs/hit", "msbfs/miss"} {
		if xs := groups[k]; len(xs) > 0 {
			b = fmt.Appendf(b, " %s %d@%.1f", k, len(xs), median(xs))
		}
	}
	return string(b)
}
