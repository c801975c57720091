package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/core"
	"rckalign/internal/experiments"
	"rckalign/internal/loadgen"
	"rckalign/internal/pdb"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

const (
	// readConns caps the read phase's connections, as ck34Workers caps
	// the cold pass's host workers.
	readConns = 2
	// nominalRPS is the read rate the latency metrics are taken at, well
	// below the service's capacity on a 2-core host.
	nominalRPS = 200
	// topK is the neighbour count of /topk reads.
	topK = 3
)

// readTailLevel is the percentile op_tail_ms takes of the read
// latencies. Higher percentiles follow the host rather than the
// service: on a 2-vCPU VM whose hypervisor stole 1-55% of the
// process's runnable time, a window's p98 ranged 4.3-11.3 ms, rising
// with its stolen share, while p75 stayed within 3.7-4.0 ms. The p99 is
// still reported, ungated, as serve.read_p99_ms.
const readTailLevel = 0.75

// capacityRPS are the read rates stepped through, in order, after the
// nominal step to find the highest one that meets the SLO.
var capacityRPS = []float64{300, 450, 600, 800, 1000}

// ingestFamilies are the RS119 families chains are ingested from,
// perFamily distinct members each, picked by the seed. They are the
// five families of short chains (~40-125 residues), so the ingest phase
// costs a few seconds whichever members the seed picks, and ten chains
// average out most of the cost differences between members.
var ingestFamilies = []string{"rsa", "rsc", "rse", "rsg", "rsi"}

const perFamily = 2

// sloP99 is the read latency limit (experiments.DefaultServeLoadSpec).
var sloP99 = experiments.DefaultServeLoadSpec().SLO

// serveEnv is one running in-process rckserve.
type serveEnv struct {
	srv                 *server.Server
	hs                  *httptest.Server
	synth, load, warmup time.Duration
}

func (e serveEnv) close() {
	e.hs.Close()
	e.srv.Close()
}

// startServe builds the service as `rckserve -dataset CK34` does (the
// default kernel, batch 32, max wait 2 ms, one batch worker, no
// pruning), then warms its memo from the committed CK34 pair cache
// through the store's public Get, so every CK34 pair is a hit.
func startServe(root string, tr *Tracer) (serveEnv, error) {
	var e serveEnv
	sp := tr.Begin(0, "setup", "serve set-up", "")
	defer tr.End(sp)
	t := time.Now()
	ds := synth.CK34()
	e.synth = time.Since(t)
	t = time.Now()
	pr, err := core.LoadPairResults(ds, filepath.Join(root, "testdata", "paircache", "CK34.gob"))
	e.load = time.Since(t)
	if err != nil {
		return e, err
	}
	opt := tmalign.DefaultOptions()
	e.srv = server.New(server.Config{Dataset: ds.Name, Options: opt, Batch: batcher.Config{}})
	if err := e.srv.Preload(ds.Structures); err != nil {
		e.srv.Close()
		return e, err
	}
	t = time.Now()
	keys := core.PairKeys(ds, opt)
	for k, r := range pr.Results {
		r := r
		e.srv.Store().Get(keys[k], func() any { return r })
	}
	e.warmup = time.Since(t)
	e.hs = httptest.NewServer(e.srv.Handler())
	return e, nil
}

// ingestChains picks perFamily RS119 chains per ingest family with the
// seed, in family order. A quick run ingests one chain.
func ingestChains(seed int64, quick bool) []*pdb.Structure {
	rng := rand.New(rand.NewSource(seed))
	all := synth.RS119().Structures
	var out []*pdb.Structure
	for _, f := range ingestFamilies {
		var members []*pdb.Structure
		for _, s := range all {
			if strings.HasPrefix(s.ID, f) {
				members = append(members, s)
			}
		}
		for _, k := range rng.Perm(len(members))[:perFamily] {
			out = append(out, members[k])
		}
	}
	if quick {
		out = out[:1]
	}
	return out
}

// bodyTap keeps each response body, keyed by X-Request-ID, so the
// benchmark can check served scores after a step without slowing the
// load generator's requests down with parsing.
type bodyTap struct {
	base   http.RoundTripper
	mu     sync.Mutex
	bodies map[string][]byte
}

func (b *bodyTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := b.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.bodies[req.Header.Get("X-Request-ID")] = body
	b.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// cappedTransport is an HTTP transport limited to conns connections.
func cappedTransport(conns int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	return t
}

// ingestStats is what the ingest phase measured.
type ingestStats struct {
	wall             time.Duration // effective (see hostclock.go)
	ingests, uploads []float64     // seconds, milliseconds
	misses           int
}

// ingest uploads each chain as PDB text and asks for its one-vs-all
// row set, one request at a time on one connection: the write path
// (parse, validate, append) followed by cold kernel work through the
// batcher.
func ingest(e serveEnv, chains []*pdb.Structure, seed int64, tr *Tracer, out *outcome) (ingestStats, error) {
	tp := cappedTransport(1)
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	var st ingestStats
	ht, err := startTimer()
	if err != nil {
		return st, err
	}
	root := tr.Begin(0, "bench", "ingest phase", "")
	for k, s := range chains {
		var text bytes.Buffer
		if err := pdb.Write(&text, s); err != nil {
			return st, err
		}
		req := fmt.Sprintf("ingest-%d-%d", seed, k)
		span := tr.Begin(root, "bench", "ingest "+s.ID, req)
		t := time.Now()
		status, _, err := post(client, e.hs.URL+"/structures?id="+url.QueryEscape(s.ID), req+"-upload", &text)
		up := time.Since(t)
		tr.Add(span, "http", "POST /structures", req, t, t.Add(up))
		out.Attempted++
		if err != nil {
			return st, err
		}
		if status != http.StatusCreated {
			out.Failed++
			out.check(fmt.Errorf("upload %s: HTTP %d", s.ID, status))
			tr.End(span)
			continue
		}
		t1 := time.Now()
		status, body, err := post(client, e.hs.URL+"/onevsall?target="+url.QueryEscape(s.ID), req, nil)
		done := time.Now()
		tr.End(span)
		out.Attempted++
		if err != nil {
			return st, err
		}
		var resp server.OneVsAllResponse
		if err := checkOneVsAll(status, body, e.srv.DB().Len(), &resp); err != nil {
			out.Failed++
			out.check(fmt.Errorf("ingest %s: %w", s.ID, err))
			continue
		}
		hs := tr.Add(span, "http", "POST /onevsall", req, t1, done)
		serverSpans(tr, hs, req, t1, done, resp.MaxTiming)
		st.ingests = append(st.ingests, done.Sub(t).Seconds())
		st.uploads = append(st.uploads, ms(up))
		st.misses += resp.MemoMisses
	}
	tr.End(root)
	ws, err := ht.stop()
	st.wall = ws.effective()
	return st, err
}

func post(c *http.Client, u, reqID string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, u, body)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkOneVsAll decodes a /onevsall reply and checks it holds dbLen-1
// finite rows.
func checkOneVsAll(status int, body []byte, dbLen int, resp *server.OneVsAllResponse) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, resp); err != nil {
		return err
	}
	if resp.Count != dbLen-1 || len(resp.Rows) != dbLen-1 {
		return fmt.Errorf("%d rows (count %d), want %d", len(resp.Rows), resp.Count, dbLen-1)
	}
	for _, r := range resp.Rows {
		if err := finiteRow(r); err != nil {
			return err
		}
	}
	return nil
}

// serverSpans adds the server-reported part of a request under its
// HTTP span: the server's total time and, inside it, the batch compute
// time. Only durations are reported, so the spans are placed at the end
// of the HTTP span, where the reply was written.
func serverSpans(tr *Tracer, parent int, req string, start, done time.Time, t server.TimingBreakdown) {
	if tr == nil || parent == 0 {
		return
	}
	total := time.Duration(t.TotalS * float64(time.Second))
	if s := done.Sub(start); total > s {
		total = s
	}
	sv := tr.Add(parent, "server", "server total", req, done.Add(-total), done)
	compute := time.Duration(t.ComputeS * float64(time.Second))
	if compute > total {
		compute = total
	}
	tr.Add(sv, "batcher", "batch compute", req, done.Add(-compute), done)
}

// stepStats is what one open-loop read step measured.
type stepStats struct {
	rps                 float64
	offered, ok         int
	lat                 []float64 // ms from due to reply, completed requests
	late                []float64 // ms from due to send
	queueWait, compute  []float64 // server-reported ms
	serverTotal, httpMs []float64
	p50, p99            float64
	// steal is the share of the step's runnable time the hypervisor
	// stole (see hostclock.go).
	steal float64
}

// meetsSLO reports whether the step kept p99 (failures counting as
// misses) within the limit with goodput of at least 95% of offered.
func (s stepStats) meetsSLO() bool {
	if s.offered == 0 || float64(s.ok) < 0.95*float64(s.offered) {
		return false
	}
	// A failed request misses the limit: count it above p99.
	lat := append([]float64(nil), s.lat...)
	for i := s.ok; i < s.offered; i++ {
		lat = append(lat, math.Inf(1))
	}
	return quantile(lat, 0.99) <= ms(sloP99)
}

// readStep replays one constant-rate open-loop step of the default
// 90/7/3 score/onevsall/topk mix over the current database on at most
// readConns connections. Latency runs from when each request was due.
// Every reply is checked: CK34 rows against the golden, the rest for
// finite scores and the right row counts.
func readStep(e serveEnv, ids []string, rps float64, dur time.Duration, seed int64, golden goldenScores, tr *Tracer, parent int, out *outcome) (stepStats, error) {
	st := stepStats{rps: rps}
	arrivals, err := loadgen.Synthesize(loadgen.SynthSpec{Seed: seed, Slots: loadgen.Constant(rps, dur, dur)})
	if err != nil {
		return st, err
	}
	reqs, err := loadgen.BuildRequests(arrivals, ids, seed, topK)
	if err != nil {
		return st, err
	}
	tp := cappedTransport(readConns)
	defer tp.CloseIdleConnections()
	tap := &bodyTap{base: tp, bodies: map[string][]byte{}}
	r := &loadgen.Runner{Base: e.hs.URL, Client: &http.Client{Transport: tap}}
	ht, err := startTimer()
	if err != nil {
		return st, err
	}
	start := time.Now()
	samples, _ := r.Run(reqs)
	hs, err := ht.stop()
	if err != nil {
		return st, err
	}
	st.steal = hs.stealFrac()
	st.offered = len(samples)
	for _, s := range samples {
		out.Attempted++
		if err := checkRead(s, tap.bodies[s.ReqID], len(ids), golden); err != nil {
			out.Failed++
			out.check(fmt.Errorf("read %s: %w", s.ReqID, err))
			continue
		}
		st.ok++
		due := start.Add(s.Scheduled)
		sent := start.Add(s.Start)
		done := sent.Add(s.Latency)
		st.lat = append(st.lat, ms(done.Sub(due)))
		st.late = append(st.late, ms(sent.Sub(due)))
		st.queueWait = append(st.queueWait, s.Server.QueueWaitS*1e3)
		st.compute = append(st.compute, s.Server.ComputeS*1e3)
		st.serverTotal = append(st.serverTotal, s.Server.TotalS*1e3)
		st.httpMs = append(st.httpMs, ms(s.Latency)-s.Server.TotalS*1e3)
		if tr != nil {
			tr.Add(parent, "loadgen", "wait to send", s.ReqID, due, sent)
			hs := tr.Add(parent, "http", string(s.Op), s.ReqID, sent, done)
			serverSpans(tr, hs, s.ReqID, sent, done, server.TimingBreakdown{
				QueueWaitS: s.Server.QueueWaitS, ComputeS: s.Server.ComputeS, TotalS: s.Server.TotalS,
			})
		}
	}
	st.p50, st.p99 = quantile(st.lat, 0.50), quantile(st.lat, 0.99)
	return st, nil
}

// checkRead checks one read's reply.
func checkRead(s loadgen.Sample, body []byte, dbLen int, golden goldenScores) error {
	if !s.OK() {
		return fmt.Errorf("%s: %s", s.ErrClass, s.Err)
	}
	switch s.Op {
	case loadgen.OpScore:
		var resp server.ScoreResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return golden.checkRow(resp.ScoreRow)
	case loadgen.OpOneVsAll:
		var resp server.OneVsAllResponse
		if err := checkOneVsAll(s.Status, body, dbLen, &resp); err != nil {
			return err
		}
		for _, row := range resp.Rows {
			if err := golden.checkRow(row); err != nil {
				return err
			}
		}
		return nil
	case loadgen.OpTopK:
		var resp struct {
			Neighbors []server.Neighbor `json:"neighbors"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Neighbors) != topK {
			return fmt.Errorf("%d neighbours, want %d", len(resp.Neighbors), topK)
		}
		for _, n := range resp.Neighbors {
			if math.IsNaN(n.TM) || math.IsInf(n.TM, 0) {
				return fmt.Errorf("neighbour %s: TM %v", n.ID, n.TM)
			}
		}
		return nil
	}
	return fmt.Errorf("unexpected op %q", s.Op)
}

// maxReadRPS returns the highest read rate meeting the SLO: the last
// passing step, moved toward the first failing step by where p99
// crosses the limit between them (linear in p99). When the failing
// step also lost goodput, the last passing rate is returned as is.
func maxReadRPS(steps []stepStats) float64 {
	best := 0.0
	prevP99 := 0.0
	for _, s := range steps {
		if s.meetsSLO() {
			best, prevP99 = s.rps, s.p99
			continue
		}
		limit := ms(sloP99)
		if s.ok == s.offered && s.p99 > limit && s.p99 > prevP99 {
			return best + (s.rps-best)*(limit-prevP99)/(s.p99-prevP99)
		}
		return best
	}
	return best
}

// serveRun is one full serve workload run on a fresh service.
type serveRun struct {
	ingest ingestStats
	// windows are the repeats of the nominal read step; nominal pools
	// their samples.
	windows []stepStats
	nominal stepStats
	steps   []stepStats
	// Batcher and pair-store activity during the nominal windows.
	batchMean, timer float64
	hits, misses     int64
	peakPending      int64
	// rssMB is the peak RSS up to the end of the nominal windows, before
	// the capacity steps pile up load-generator goroutines.
	rssMB float64
}

// nominalWindows is how many times the nominal read step runs (the same
// trace each time). The latency metrics are the medians over the
// windows, so a stall in one window (a burst of stolen vCPU time, see
// hostclock.go) does not decide them.
const nominalWindows = 5

// pool merges steps' samples into one step.
func pool(steps []stepStats) stepStats {
	var p stepStats
	for _, s := range steps {
		p.rps = s.rps
		p.offered += s.offered
		p.ok += s.ok
		p.lat = append(p.lat, s.lat...)
		p.late = append(p.late, s.late...)
		p.queueWait = append(p.queueWait, s.queueWait...)
		p.compute = append(p.compute, s.compute...)
		p.serverTotal = append(p.serverTotal, s.serverTotal...)
		p.httpMs = append(p.httpMs, s.httpMs...)
	}
	p.p50, p.p99 = quantile(p.lat, 0.50), quantile(p.lat, 0.99)
	return p
}

// windowMedian returns the median over the nominal windows of f.
func (r serveRun) windowMedian(f func(stepStats) float64) float64 {
	var xs []float64
	for _, w := range r.windows {
		xs = append(xs, f(w))
	}
	return median(xs)
}

func serveOnce(o options, e serveEnv, golden goldenScores, tr *Tracer, out *outcome) (serveRun, error) {
	var run serveRun
	var err error
	run.ingest, err = ingest(e, ingestChains(o.Seed, o.Quick), o.Seed, tr, out)
	if err != nil {
		return run, err
	}
	ids, err := (&loadgen.Runner{Base: e.hs.URL}).FetchIDs()
	if err != nil {
		return run, err
	}
	windowDur := time.Duration(0.16 * o.Seconds * float64(time.Second))
	stepDur := time.Duration(0.04 * o.Seconds * float64(time.Second))
	warmupDur := time.Duration(0.04 * o.Seconds * float64(time.Second))
	root := tr.Begin(0, "bench", "read phase", "")
	// An unmeasured (but checked) warm-up at the nominal rate lets the
	// connections open and the runtime settle before the nominal step.
	span := tr.Begin(root, "bench", "read warm-up", "")
	_, err = readStep(e, ids, nominalRPS, warmupDur, o.Seed*100-1, golden, tr, span, out)
	tr.End(span)
	if err != nil {
		return run, err
	}
	b0, p0 := e.srv.BatcherStats(), e.srv.Store().StatsSnapshot()
	for w := 0; w < nominalWindows; w++ {
		span = tr.Begin(root, "bench", fmt.Sprintf("reads at %d rps, window %d", nominalRPS, w+1), "")
		st, err := readStep(e, ids, nominalRPS, windowDur, o.Seed*100, golden, tr, span, out)
		tr.End(span)
		if err != nil {
			return run, err
		}
		run.windows = append(run.windows, st)
	}
	b1, p1 := e.srv.BatcherStats(), e.srv.Store().StatsSnapshot()
	run.hits, run.misses = p1.Hits-p0.Hits, p1.Misses-p0.Misses
	if n := b1.Batches - b0.Batches; n > 0 {
		run.batchMean = float64(b1.Completed-b0.Completed) / float64(n)
		run.timer = float64(b1.TimerFlushes-b0.TimerFlushes) / float64(n)
	}
	if run.rssMB, err = peakRSSMB(); err != nil {
		return run, err
	}
	run.nominal = pool(run.windows)
	run.steps = append(run.steps, run.nominal)
	for k, rps := range capacityRPS {
		span := tr.Begin(root, "bench", fmt.Sprintf("reads at %g rps", rps), "")
		st, err := readStep(e, ids, rps, stepDur, o.Seed*100+int64(k)+1, golden, tr, span, out)
		tr.End(span)
		if err != nil {
			return run, err
		}
		run.steps = append(run.steps, st)
		if !st.meetsSLO() {
			break
		}
	}
	tr.End(root)
	run.peakPending = e.srv.BatcherStats().PeakPending
	return run, nil
}

func runServeCK34(o options) (*outcome, error) {
	out := newOutcome()
	golden, err := loadGolden(o.Root)
	if err != nil {
		return nil, err
	}
	var synths, loads, warms []float64
	setupOnce := func(tr *Tracer) func() (serveEnv, error) {
		return func() (serveEnv, error) {
			e, err := startServe(o.Root, tr)
			synths, loads, warms = append(synths, ms(e.synth)), append(loads, ms(e.load)), append(warms, ms(e.warmup))
			return e, err
		}
	}
	e, setup, err := medianSetup(setupOnce(nil), serveEnv.close)
	if err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = setup
	run, err := serveOnce(o, e, golden, nil, out)
	e.close()
	if err != nil {
		return nil, err
	}
	m := out.Metrics
	m["wall_s"] = run.ingest.wall.Seconds()
	m["pairs_per_s"] = float64(run.ingest.misses) / run.ingest.wall.Seconds()
	m["op_p50_ms"] = run.windowMedian(func(s stepStats) float64 { return s.p50 })
	m["op_tail_ms"] = run.windowMedian(func(s stepStats) float64 { return quantile(s.lat, readTailLevel) })
	m["peak_rss_mb"] = run.rssMB
	out.notef("ingest: %d chains, %d cold pairs, p50 %.3f s", len(run.ingest.ingests), run.ingest.misses, median(run.ingest.ingests))
	for _, s := range run.steps {
		out.notef("reads at %4g rps: %d offered, %d ok, p50 %.2f ms, p99 %.2f ms (from due), late p99 %.2f ms, meets SLO %v",
			s.rps, s.offered, s.ok, s.p50, s.p99, quantile(s.late, 0.99), s.meetsSLO())
	}
	out.notef("read_max_rps %.1f 1/s (p99 <= %v, goodput >= 95%%, %d connections)", maxReadRPS(run.steps), sloP99, readConns)
	out.notef("ingest_p50_s %.4f s", median(run.ingest.ingests))
	for k, w := range run.windows {
		out.notef("nominal window %d: %d reads, p50 %.2f ms, p%g %.2f ms, p99 %.2f ms, %.1f%% of runnable time stolen",
			k+1, len(w.lat), w.p50, 100*readTailLevel, quantile(w.lat, readTailLevel), w.p99, 100*w.steal)
	}
	out.notef("op = one read at %d rps, tail = p%g; op_p50_ms and op_tail_ms are medians over the %d windows", nominalRPS, 100*readTailLevel, nominalWindows)
	if o.Trace {
		zeroMetrics(out)
		m["setup.synth_ms"] = median(synths)
		m["setup.cache_load_ms"] = median(loads)
		m["setup.memo_warm_ms"] = median(warms)
		if err := traceServe(o, golden, setupOnce, run, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceServe repeats the workload on a fresh service with tracing and
// the CPU profiler on, and records the serving layers' metrics.
func traceServe(o options, golden goldenScores, setupOnce func(*Tracer) func() (serveEnv, error), untraced serveRun, out *outcome) error {
	_, profPath := traceFiles(o)
	stop, err := startProfile(profPath)
	if err != nil {
		return err
	}
	tr := newTracer()
	e, err := setupOnce(tr)()
	if err != nil {
		stop()
		return err
	}
	lo := time.Since(tr.t0).Seconds()
	run, err := serveOnce(o, e, golden, tr, out)
	hi := time.Since(tr.t0).Seconds()
	entries := e.srv.Store().Len()
	e.close()
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	m := out.Metrics
	n := run.nominal
	m["batcher.queue_wait_ms.p50"] = quantile(n.queueWait, 0.50)
	m["batcher.queue_wait_ms.p99"] = quantile(n.queueWait, 0.99)
	m["batcher.compute_ms.p50"] = quantile(n.compute, 0.50)
	m["batcher.batch_size.mean"] = run.batchMean
	m["batcher.timer_flush_frac"] = run.timer
	m["batcher.peak_pending"] = float64(run.peakPending)
	m["server.total_ms.p50"] = quantile(n.serverTotal, 0.50)
	m["server.total_ms.p99"] = quantile(n.serverTotal, 0.99)
	m["http.overhead_ms.p50"] = quantile(n.httpMs, 0.50)
	m["server.upload_ms.p50"] = median(run.ingest.uploads)
	m["serve.read_max_rps"] = maxReadRPS(run.steps)
	m["serve.ingest_p50_s"] = median(run.ingest.ingests)
	m["serve.read_p99_ms"] = untraced.nominal.p99
	m["loadgen.late_ms.p99"] = quantile(n.late, 0.99)
	m["pairstore.hits"] = float64(run.hits)
	m["pairstore.misses"] = float64(run.misses)
	m["pairstore.entries"] = float64(entries)
	return finishTrace(o, out, tr, lo, hi, run.ingest.wall, untraced.ingest.wall)
}
