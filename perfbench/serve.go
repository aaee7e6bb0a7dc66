package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/suite"
)

// Serve workload settings.  The rate is fixed, not measured, so two
// commits see the same offered load: about half the all-miss capacity
// of two workers on this corpus on a 2-CPU machine.
const (
	serveRate        = 500.0 // open-loop requests per second
	serveLimitMS     = 50.0  // latency limit for goodput_rps
	serveOpenShare   = 0.6   // share of the run spent in the open loop
	serveConns       = 2     // client connections (nproc)
	serveWorkers     = 2     // server optimization workers
	serveCacheSize   = 48    // LRU entries, below the corpus's working set
	serveBatchShare  = 0.1   // share of open-loop events sent as a batch
	serveBatchItems  = 4     // items per batch
	serveZipfS       = 1.1   // Zipf exponent of item popularity
	serveProgenSeed  = 9000  // fixed seed of the generated ILOC corpus
	serveProgenCount = 32    // generated ILOC programs in the corpus
	serveRankSeed    = 0x5eed
	serveTailSegment = 200         // open-loop events per tail segment
	serveSegment     = time.Second // open-loop time between calibrations
)

// serveItem is one corpus entry: a source at one level, with the
// optimized ILOC a direct core.OptimizeWith produces for it.
type serveItem struct {
	Name   string
	Lang   string
	Source string
	Level  core.Level
	Want   string
	body   []byte
}

func (it *serveItem) request() serve.OptimizeRequest {
	return serve.OptimizeRequest{Source: it.Source, Lang: it.Lang, Level: string(it.Level)}
}

// serveCorpus builds the corpus: the suite's Mini-Fortran and PL/0
// routines plus generated ILOC programs, each at all four levels.  It
// optimizes every item directly for the byte-identity check and
// interprets the results for the deterministic counts.
func serveCorpus(rep *report) ([]serveItem, []job, []jobResult, error) {
	type source struct {
		name, lang, src string
		check           func(*ir.Program, caller) (int64, error)
	}
	var srcs []source
	for _, rt := range suite.All() {
		rt := rt
		if l := rt.Lang(); l == "mf" || l == "pl0" {
			srcs = append(srcs, source{rt.Name, l, rt.Source, func(p *ir.Program, call caller) (int64, error) {
				m := interp.NewMachine(p)
				v, err := call(m, rt.Driver, rt.Args)
				if err != nil {
					return 0, err
				}
				return m.Steps, rt.Check(v)
			}})
		}
	}
	for i, src := range progen.Corpus(serveProgenSeed, serveProgenCount) {
		prog, err := ir.ParseProgramString(src)
		if err != nil {
			return nil, nil, nil, err
		}
		refs, err := referenceRuns(prog)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("progen corpus %d: %w", i, err)
		}
		srcs = append(srcs, source{fmt.Sprintf("corpus-%d", i), "iloc", src, func(p *ir.Program, call caller) (int64, error) {
			return compareRuns(p, refs, 1e-6, false, call)
		}})
	}
	var items []serveItem
	var jobs []job
	for _, s := range srcs {
		for _, lv := range core.Levels {
			it := serveItem{Name: s.name, Lang: s.lang, Source: s.src, Level: lv}
			body, err := json.Marshal(it.request())
			if err != nil {
				return nil, nil, nil, err
			}
			it.body = body
			items = append(items, it)
			jobs = append(jobs, job{Name: s.name, Lang: s.lang, Source: s.src, Level: lv, check: s.check})
		}
	}
	results := make([]jobResult, len(jobs))
	call := newRunner(nil).callIn(0)
	for i := range jobs {
		prog, _, err := lang.Compile(jobs[i].Source, jobs[i].Lang)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", jobs[i].Name, err)
		}
		out, err := core.OptimizeWith(prog, jobs[i].Level, core.OptimizeOptions{Workers: 1})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s at %s: %w", jobs[i].Name, jobs[i].Level, err)
		}
		items[i].Want = out.String()
		results[i] = jobResult{Static: out.InstrCount(), Sum: sha256.Sum256([]byte(items[i].Want))}
		rep.Attempted++
		if results[i].Dyn, err = jobs[i].check(out, call); err != nil {
			rep.fail("%s at %s: %v", jobs[i].Name, jobs[i].Level, err)
		}
	}
	return items, jobs, results, nil
}

// server is an in-process optimization server on a loopback listener.
type server struct {
	srv     *serve.Server
	url     string
	dir     string
	done    chan error
	stopped bool
}

func startServer(base string) (*server, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: serveWorkers, CacheSize: serveCacheSize, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + l.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(l) }()
	return s, nil
}

// stop shuts the server down, waits for it and removes its store.  It
// may be called more than once.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// event is one scheduled open-loop send: one item, or a batch.
type event struct {
	due   time.Duration
	items []int
}

// outcome is one completed request as the client saw it.
type outcome struct {
	due, sent, done time.Time
	items           []int
	provenance      string // hit, disk, shared, miss or batch
	err             error
}

// client sends requests and checks every returned ILOC.
type client struct {
	http  *http.Client // load, on serveConns connections
	ctl   *http.Client // /debug/vars, outside the load's connections
	url   string
	items []serveItem
}

// send posts one item, or a batch when len(idx) > 1, and returns the
// response's provenance.
func (c *client) send(idx []int) (string, error) {
	if len(idx) == 1 {
		it := &c.items[idx[0]]
		var resp serve.OptimizeResponse
		if err := c.post("/optimize", it.body, &resp); err != nil {
			return "", fmt.Errorf("%s at %s: %w", it.Name, it.Level, err)
		}
		if resp.ILOC != it.Want {
			return "", fmt.Errorf("%s at %s: served ILOC differs from direct optimization", it.Name, it.Level)
		}
		switch {
		case resp.Cached:
			return "hit", nil
		case resp.Shared:
			return "shared", nil
		case resp.DiskCached:
			return "disk", nil
		}
		return "miss", nil
	}
	var req serve.BatchRequest
	for _, i := range idx {
		req.Items = append(req.Items, c.items[i].request())
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var resp serve.BatchResponse
	if err := c.post("/optimize/batch", body, &resp); err != nil {
		return "", fmt.Errorf("batch: %w", err)
	}
	if len(resp.Items) != len(idx) {
		return "", fmt.Errorf("batch: %d results for %d items", len(resp.Items), len(idx))
	}
	for k, i := range idx {
		it, r := &c.items[i], resp.Items[k]
		switch {
		case r.Error != "" || r.OptimizeResponse == nil:
			return "", fmt.Errorf("batch item %s at %s: status %d: %s", it.Name, it.Level, r.Status, r.Error)
		case r.ILOC != it.Want:
			return "", fmt.Errorf("batch item %s at %s: served ILOC differs from direct optimization", it.Name, it.Level)
		}
	}
	return "batch", nil
}

func (c *client) post(path string, body []byte, v any) error {
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// vars fetches the server's /debug/vars document.
func (c *client) vars() (map[string]json.RawMessage, error) {
	resp, err := c.ctl.Get(c.url + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("debug/vars: %w", err)
	}
	return m, nil
}

// popularity draws corpus items by a Zipf law over a fixed ranking, so
// every seed sees the same hot items and only the draws differ.
type popularity struct {
	zipf *rand.Zipf
	rank []int
}

func newPopularity(rng *rand.Rand, n int) *popularity {
	rank := rand.New(rand.NewSource(serveRankSeed)).Perm(n)
	return &popularity{zipf: rand.NewZipf(rng, serveZipfS, 1, uint64(n-1)), rank: rank}
}

func (p *popularity) draw() int { return p.rank[p.zipf.Uint64()] }

// schedule is the open loop's Poisson arrival schedule.
func schedule(rng *rand.Rand, pop *popularity, d time.Duration) []event {
	var evs []event
	t := 0.0
	for {
		t += rng.ExpFloat64() / serveRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return evs
		}
		n := 1
		if rng.Float64() < serveBatchShare {
			n = serveBatchItems
		}
		ev := event{due: due}
		for k := 0; k < n; k++ {
			ev.items = append(ev.items, pop.draw())
		}
		evs = append(evs, ev)
	}
}

// openLoop sends the schedule on serveConns connections.  Each request
// is timed from when it was due; lag is how late a free sender started
// it.
func openLoop(c *client, evs []event) (outs []outcome, lag []float64) {
	ch := make(chan event)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range ch {
				due, free := start.Add(ev.due), time.Now()
				time.Sleep(time.Until(due))
				sent := time.Now()
				prov, err := c.send(ev.items)
				o := outcome{due: due, sent: sent, done: time.Now(), items: ev.items, provenance: prov, err: err}
				ready := due
				if free.After(due) {
					ready = free
				}
				mu.Lock()
				outs = append(outs, o)
				lag = append(lag, float64(sent.Sub(ready))/1e6)
				mu.Unlock()
			}
		}()
	}
	for _, ev := range evs {
		ch <- ev
	}
	close(ch)
	wg.Wait()
	return outs, lag
}

// closedLoop sends single requests back to back, one sender per
// popularity generator, for d.
func closedLoop(c *client, pops []*popularity, d time.Duration) []outcome {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var outs []outcome
	start := time.Now()
	for _, pop := range pops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sent := time.Now()
				if sent.Sub(start) >= d {
					return
				}
				idx := []int{pop.draw()}
				prov, err := c.send(idx)
				o := outcome{due: sent, sent: sent, done: time.Now(), items: idx, provenance: prov, err: err}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// pollQueue reads the queue-depth gauge every 10ms until stop is
// closed and returns the largest value seen.
func pollQueue(c *client, stop <-chan struct{}) int64 {
	var depthMax int64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return depthMax
		case <-tick.C:
		}
		if v, err := c.vars(); err == nil {
			var q int64
			if json.Unmarshal(v["queue_depth"], &q) == nil && q > depthMax {
				depthMax = q
			}
		}
	}
}

// setupServe builds the corpus and starts a fresh server,
// setupRepeats times, keeping the last server.
func setupServe(rep *report, base string) (*server, []serveItem, error) {
	var times []float64
	var srv *server
	var items []serveItem
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		t := time.Now()
		var jobs []job
		var results []jobResult
		var err error
		items, jobs, results, err = serveCorpus(rep)
		if err != nil {
			return nil, nil, err
		}
		if srv, err = startServer(base); err != nil {
			return nil, nil, err
		}
		times = append(times, since(t)*rep.cal.factor())
		setCounts(rep, jobs, results)
	}
	rep.set("setup_s", median(times))
	rep.Samples["setup_s"] = len(times)
	return srv, items, nil
}

// serveRun is what the two stages of the serve workload observed.
type serveRun struct {
	open, closed []outcome
	lag          []float64
	openLat      latencies // scaled, from when each event was due
	sliceRPS     [2][]float64
	peaks        []float64 // peak RSS per segment and slice
	depthMax     int64
	within       int
}

// runServe is the service workload: an open-loop stage at a fixed rate
// followed by a closed-loop stage, against an in-process server whose
// LRU is smaller than the corpus and whose disk store starts empty.
//
// The kernel of calib.go cannot run beside the load without disturbing
// it, so the open loop runs as one-second segments, each with its own
// schedule, and the closed loop as one-second slices, with the kernel
// timed between them.  The open-loop tail is taken per serveTailSegment
// events: on a shared 2-vCPU machine, outside interference stalls the
// two senders for tens of milliseconds at a time, and a longer
// window's tail measured those stalls more than the server.  A traced
// run samples the queue depth during alternate slices, which gives the
// tracing overhead.
func runServe(cfg runConfig, rep *report) error {
	srv, items, err := setupServe(rep, filepath.Join(filepath.Dir(cfg.OutDir), "tmp"))
	if err != nil {
		return err
	}
	defer srv.stop()
	c := &client{
		http: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns,
		}},
		ctl:   &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}},
		url:   srv.url,
		items: items,
	}
	defer c.http.CloseIdleConnections()
	defer c.ctl.CloseIdleConnections()
	rep.Env["latency_limit_ms"] = serveLimitMS
	rep.Env["open_loop_rate"] = serveRate
	rep.Env["corpus_items"] = len(items)
	rep.Env["cache_entries"] = serveCacheSize

	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	pop := newPopularity(rng, len(items))
	segments := max(1, int(cfg.Seconds*serveOpenShare*float64(time.Second)/float64(serveSegment)))
	slices := max(2, int(cfg.Seconds*(1-serveOpenShare)))
	pops := make([]*popularity, serveConns)
	for i := range pops {
		// Each closed-loop sender draws from its own generator.
		pops[i] = &popularity{zipf: rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), serveZipfS, 1, uint64(len(items)-1)), rank: pop.rank}
	}

	before, err := c.vars()
	if err != nil {
		return err
	}
	var run serveRun
	allocBefore, origin := allocated(), time.Now()
	f := rep.cal.factor()
	resetPeakRSS()
	for s := 0; s < segments; s++ {
		outs, lag := openLoop(c, schedule(rng, pop, serveSegment))
		run.peaks = append(run.peaks, peakRSSMB())
		next := rep.cal.factor()
		resetPeakRSS()
		scale := (f + next) / 2
		for _, o := range outs {
			lat := o.done.Sub(o.due)
			run.openLat.add(time.Duration(float64(lat) * scale))
			if o.err == nil && float64(lat)/1e6 <= serveLimitMS {
				run.within++
			}
		}
		run.open = append(run.open, outs...)
		run.lag = append(run.lag, lag...)
		f = next
	}
	for s := 0; s < slices; s++ {
		traced := cfg.Trace && s%2 == 1
		var stop chan struct{}
		var depth chan int64
		if traced {
			stop, depth = make(chan struct{}), make(chan int64, 1)
			go func() { depth <- pollQueue(c, stop) }()
		}
		outs := closedLoop(c, pops, time.Second)
		if traced {
			close(stop)
			run.depthMax = max(run.depthMax, <-depth)
		}
		run.peaks = append(run.peaks, peakRSSMB())
		next := rep.cal.factor()
		resetPeakRSS()
		k := 0
		if traced {
			k = 1
		}
		// A slice lasts one second, so its count is its rate.
		run.sliceRPS[k] = append(run.sliceRPS[k], float64(len(outs))/((f+next)/2))
		run.closed = append(run.closed, outs...)
		f = next
	}
	allocAfter := allocated()
	after, err := c.vars()
	if err != nil {
		return err
	}

	requested := 0
	split := map[string]*latencies{}
	for _, o := range append(run.open, run.closed...) {
		rep.Attempted += len(o.items)
		requested += len(o.items)
		if o.err != nil {
			rep.fail("%v", o.err)
			rep.Failed += len(o.items) - 1
			continue
		}
		if split[o.provenance] == nil {
			split[o.provenance] = &latencies{}
		}
		split[o.provenance].add(o.done.Sub(o.sent))
	}
	tl := segmentedTail(run.openLat, serveTailSegment)
	rep.Samples["job_p50_ms"] = len(run.openLat)
	rep.Samples["job_tail_ms"] = tl
	rep.Samples["closed_loop_requests"] = len(run.closed)
	rep.Samples["closed_loop_slices"] = len(run.sliceRPS[0])

	if !cfg.Trace {
		rep.set("jobs_per_s", median(run.sliceRPS[0]))
		rep.set("job_p50_ms", median(run.openLat))
		rep.set("job_tail_ms", tl.Value)
		rep.set("goodput_rps", float64(run.within)/(float64(segments)*serveSegment.Seconds()))
		rep.set("peak_rss_mb", median(run.peaks))
		rep.Details["raw_closed_loop_rps"] = float64(len(run.closed)) / float64(slices)
	} else {
		if err := serveLayers(cfg, rep, c, srv, origin, before, after, run.open, run.closed, split, requested); err != nil {
			return err
		}
		rep.set("serve.queue_depth_max", float64(run.depthMax))
		rep.set("core.alloc_mb", float64(allocAfter-allocBefore)/(1<<20)/float64(requested))
		rep.set("loadgen.lag_ms", mean(run.lag))
		untraced, traced := median(run.sliceRPS[0]), median(run.sliceRPS[1])
		rep.set("trace.overhead_pct", 100*(untraced-traced)/untraced)
	}
	return srv.stop()
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// counter reads one integer or map entry from a /debug/vars document;
// an absent or malformed entry reads 0.
func counter(vars map[string]json.RawMessage, name, key string) float64 {
	raw := vars[name]
	if key == "" {
		var v float64
		if json.Unmarshal(raw, &v) != nil {
			return 0
		}
		return v
	}
	var m map[string]float64
	if json.Unmarshal(raw, &m) != nil {
		return 0
	}
	return m[key]
}

// serveLayers records the serve workload's per-layer metrics: counter
// deltas from /debug/vars, client latency by provenance, and the hit
// path's front end, printing and cache key replayed on the requested
// items.
func serveLayers(cfg runConfig, rep *report, c *client, srv *server, origin time.Time, before, after map[string]json.RawMessage, outs, closed []outcome, split map[string]*latencies, requested int) error {
	delta := func(name, key string) float64 { return counter(after, name, key) - counter(before, name, key) }
	n := float64(requested)
	hits, misses := delta("cache_hits", ""), delta("cache_misses", "")
	disk, shared := delta("disk_hits", ""), delta("singleflight_shared", "")
	if total := hits + misses + disk + shared; total > 0 {
		rep.set("serve.hit_ratio", hits/total)
	}
	if misses+disk > 0 {
		rep.set("serve.disk_hit_ratio", disk/(misses+disk))
	}
	rep.set("serve.shared", shared)
	rep.set("serve.rejected", delta("rejected", ""))
	if l := split["hit"]; l != nil {
		rep.set("serve.hit_p50_ms", median(*l))
	}
	if l := split["miss"]; l != nil {
		rep.set("serve.miss_p50_ms", median(*l))
	}
	counts := map[string]int{}
	for p, l := range split {
		counts[p] = len(*l)
	}
	rep.Samples["provenance"] = counts
	for _, p := range tracedPasses {
		rep.set("pass."+p+".ms", delta("pass_nanos", p)/1e6/n)
		calls := delta("pass_count", p)
		rep.set("pass."+p+".calls", calls/n)
		if calls > 0 {
			rep.set("pass."+p+".changed_ratio", delta("pass_changed", p)/calls)
		}
	}
	for _, a := range []string{"rpo", "dom", "loops", "liveness"} {
		rep.set("analysis.builds."+a, delta("analysis_builds", a)/n)
	}

	// Each request is a root span.  What every request pays before the
	// cache lookup is then replayed on the items it asked for, in spans
	// of their own.
	tr := newTracer()
	tr.origin = origin
	version := srv.srv.Version()
	var seq int32
	for _, set := range [][]outcome{outs, closed} {
		for _, o := range set {
			seq++
			tr.add(seq, 0, "serve.request."+o.provenance, int64(o.sent.Sub(origin)), int64(o.done.Sub(origin)))
		}
	}
	seq = 0
	for _, set := range [][]outcome{outs, closed} {
		for _, o := range set {
			seq++
			for _, i := range o.items {
				it := &c.items[i]
				front := frontLayer(it.Lang)
				var prog *ir.Program
				var err error
				tr.timed(seq, 0, front, func() { prog, _, err = lang.Compile(it.Source, it.Lang) })
				if err != nil {
					return err
				}
				var text string
				tr.timed(seq, 0, "ir.print", func() { text = prog.String() })
				tr.timed(seq, 0, "serve.cachekey", func() { serve.CacheKey(text, it.Lang, string(it.Level), version, false) })
			}
		}
	}
	self := tr.selfTimes()
	per := func(name string) float64 { return float64(self[name]) / 1e6 / n }
	rep.set("minift.ms", per("minift"))
	rep.set("pl0.ms", per("pl0"))
	rep.set("ir.parse_ms", per("ir.parse"))
	rep.set("ir.print_ms", per("ir.print"))
	rep.set("serve.cachekey_us", 1000*per("serve.cachekey"))
	p50 := map[string]float64{}
	for p, l := range split {
		p50[p] = median(*l)
	}
	rep.Details["latency_p50_ms_by_provenance"] = p50
	return writeSpans(cfg, tr)
}
