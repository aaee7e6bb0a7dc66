package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const serveSrc = `
func driver(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * n
    }
    return s
}
`

// newServer builds a test server, failing the test on config errors.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postOptimize(t *testing.T, ts *httptest.Server, req OptimizeRequest) (int, OptimizeResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out OptimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

// TestOptimizeEndpoint: the happy path — optimize Mini-Fortran, get
// parseable ILOC back, interpret it via the run spec, and hit the cache
// on a repeat request.
func TestOptimizeEndpoint(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := OptimizeRequest{
		Source: serveSrc,
		Level:  "dist",
		Run:    &RunSpec{Fn: "driver", Args: []string{"9"}},
	}
	code, out, raw := postOptimize(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if out.Cached {
		t.Error("first request reported cached")
	}
	if out.Key == "" || len(out.Key) != 64 {
		t.Errorf("bad key %q", out.Key)
	}
	if !strings.Contains(out.ILOC, "program") {
		t.Errorf("response ILOC does not look like ILOC:\n%s", out.ILOC)
	}
	if out.StaticOps <= 0 {
		t.Errorf("static_ops = %d", out.StaticOps)
	}
	if out.Run == nil || out.Run.Result != "405" || out.Run.DynamicOps <= 0 {
		t.Errorf("run result: %+v", out.Run)
	}

	// Second identical request: cache hit, same key, same ILOC.
	code2, out2, _ := postOptimize(t, ts, req)
	if code2 != http.StatusOK || !out2.Cached {
		t.Errorf("repeat request: status %d cached=%v", code2, out2.Cached)
	}
	if out2.Key != out.Key || out2.ILOC != out.ILOC {
		t.Error("cached result differs from original")
	}

	// Submitting the optimizer's own ILOC output at the same level
	// addresses a cache slot too (content addressing is on canonical
	// ILOC of the *input*, so this is a different program — but it must
	// parse and optimize cleanly).
	code3, _, raw3 := postOptimize(t, ts, OptimizeRequest{Source: out.ILOC, Level: "dist"})
	if code3 != http.StatusOK {
		t.Errorf("optimizing own output failed: %d %s", code3, raw3)
	}

	m := s.Metrics()
	if hits := m.Get("cache_hits"); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if misses := m.Get("cache_misses"); misses != 2 {
		t.Errorf("cache_misses = %d, want 2", misses)
	}
}

// TestCanonicalAddressing: within one language, the cache is addressed
// by canonical content — two textual spellings of the same ILOC hash
// to the same key.  Across languages, the resolved language is its own
// key dimension: Mini-Fortran source and the canonical ILOC it
// compiles to occupy distinct slots (resolved langs "mf" vs "iloc"),
// so a front-end bug cannot poison raw-ILOC results or vice versa.
func TestCanonicalAddressing(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, fromMF, raw := postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Level: "none"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if fromMF.Lang != "mf" {
		t.Errorf("resolved lang = %q, want mf", fromMF.Lang)
	}
	// "none" leaves the program untouched, so its ILOC is the canonical
	// form of the input — but it arrives as language "iloc", which is a
	// different cache dimension: distinct key, no cache hit.
	code2, fromILOC, _ := postOptimize(t, ts, OptimizeRequest{Source: fromMF.ILOC, Level: "none"})
	if code2 != http.StatusOK {
		t.Fatal("resubmit failed")
	}
	if fromILOC.Lang != "iloc" {
		t.Errorf("resolved lang = %q, want iloc", fromILOC.Lang)
	}
	if fromILOC.Key == fromMF.Key {
		t.Errorf("mf and raw iloc share a cache key despite distinct languages:\n%s", fromMF.Key)
	}
	if fromILOC.Cached {
		t.Error("cross-language resubmission must not hit the cache")
	}
	if fromILOC.ILOC != fromMF.ILOC {
		t.Error("same canonical program must still optimize identically across languages")
	}
	// Same spelling, same language: reformatting the ILOC (extra blank
	// lines) still lands on the first iloc slot — canonical addressing
	// within the language.
	code3, reformatted, _ := postOptimize(t, ts, OptimizeRequest{Source: "\n\n" + fromMF.ILOC, Level: "none"})
	if code3 != http.StatusOK {
		t.Fatal("reformatted resubmit failed")
	}
	if reformatted.Key != fromILOC.Key {
		t.Error("two spellings of the same ILOC hash differently within one language")
	}
	if !reformatted.Cached {
		t.Error("canonical resubmission within a language should hit the cache")
	}
}

// TestGVNBackendCacheDimension: the same source at the same level with
// different GVN backends must address different cache slots — and an
// invalid backend is a 400, not a cache entry.
func TestGVNBackendCacheDimension(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := OptimizeRequest{Source: serveSrc, Level: "reassoc",
		Run: &RunSpec{Fn: "driver", Args: []string{"9"}}}
	code, awz, raw := postOptimize(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("awz request: status %d: %s", code, raw)
	}
	if awz.GVN != "awz" {
		t.Errorf("default backend reported as %q, want awz", awz.GVN)
	}

	req.GVN = "precise"
	code2, precise, raw2 := postOptimize(t, ts, req)
	if code2 != http.StatusOK {
		t.Fatalf("precise request: status %d: %s", code2, raw2)
	}
	if precise.GVN != "precise" {
		t.Errorf("backend reported as %q, want precise", precise.GVN)
	}
	if precise.Cached {
		t.Error("precise request hit the awz cache entry")
	}
	if precise.Key == awz.Key {
		t.Errorf("backends share cache key %s", awz.Key)
	}
	// Both backends compute the same value.
	if precise.Run == nil || awz.Run == nil || precise.Run.Result != awz.Run.Result {
		t.Errorf("backends disagree on the program result: %+v vs %+v", awz.Run, precise.Run)
	}

	// Explicit "awz" is the same dimension as the default.
	req.GVN = "awz"
	code3, again, _ := postOptimize(t, ts, req)
	if code3 != http.StatusOK || !again.Cached || again.Key != awz.Key {
		t.Errorf("explicit awz did not hit the default entry: status %d cached=%v", code3, again.Cached)
	}

	req.GVN = "bogus"
	code4, _, raw4 := postOptimize(t, ts, req)
	if code4 != http.StatusBadRequest {
		t.Errorf("bogus backend: status %d, want 400 (%s)", code4, raw4)
	}
}

// TestPREBackendCacheDimension mirrors the GVN test for the PRE slot:
// the same program with a different `pre` field must address a distinct
// cache entry, every backend pair gets its own slot, both backends
// agree on the program's result, and a removed or unknown backend is
// refused with a JSON 400 naming the valid ones.
func TestPREBackendCacheDimension(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := OptimizeRequest{Source: serveSrc, Level: "partial",
		Run: &RunSpec{Fn: "driver", Args: []string{"9"}}}
	keys := map[string]string{}
	results := map[string]string{}
	for _, pre := range []string{"", "drechsler", "lospre"} {
		req.PRE = pre
		code, resp, raw := postOptimize(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("pre=%q: status %d: %s", pre, code, raw)
		}
		want := pre
		if want == "" {
			want = "drechsler"
		}
		if resp.PRE != want {
			t.Errorf("pre=%q reported as %q, want %q", pre, resp.PRE, want)
		}
		// Empty and explicit "drechsler" are the same dimension; the
		// second of the pair must hit the first's entry.
		if prev, ok := keys[want]; ok {
			if prev != resp.Key || !resp.Cached {
				t.Errorf("pre=%q did not hit the %s entry (cached=%v)", pre, want, resp.Cached)
			}
		} else if resp.Cached {
			t.Errorf("pre=%q: first request was already cached", pre)
		}
		keys[want] = resp.Key
		if resp.Run != nil {
			results[want] = resp.Run.Result
		}
	}
	if keys["drechsler"] == keys["lospre"] {
		t.Errorf("PRE backends share a cache key: %v", keys)
	}
	if results["drechsler"] != results["lospre"] {
		t.Errorf("PRE backends disagree on the program result: %v", results)
	}

	for _, bad := range []string{"bogus", "lcm"} {
		req.PRE = bad
		code, _, raw := postOptimize(t, ts, req)
		if code != http.StatusBadRequest {
			t.Errorf("pre=%q: status %d, want 400 (%s)", bad, code, raw)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			t.Errorf("pre=%q: 400 body is not JSON: %q", bad, raw)
			continue
		}
		for _, name := range []string{"drechsler", "lospre"} {
			if !strings.Contains(e.Error, name) {
				t.Errorf("pre=%q: error %q does not name valid backend %s", bad, e.Error, name)
			}
		}
	}

	// The self-description advertises the per-backend versions.
	resp, err := http.Get(ts.URL + "/levels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var levels struct {
		PREBackends map[string]string `json:"pre_backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&levels); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range []string{"drechsler", "lospre"} {
		v, ok := levels.PREBackends[b]
		if !ok || v == "" {
			t.Errorf("/levels missing pre backend %s", b)
		}
		if seen[v] {
			t.Errorf("pre backends share pipeline version %s", v)
		}
		seen[v] = true
	}
}

// TestSingleFlight100: the acceptance bar — 100 concurrent identical
// requests cost exactly one cache-miss optimization; everyone gets the
// same bytes back.
func TestSingleFlight100(t *testing.T) {
	s := newServer(t, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 100
	body, _ := json.Marshal(OptimizeRequest{Source: serveSrc, Level: "dist"})
	var wg sync.WaitGroup
	keys := make([]string, n)
	ilocs := make([]string, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			var out OptimizeResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				errs[i] = err
				return
			}
			keys[i], ilocs[i] = out.Key, out.ILOC
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] || ilocs[i] != ilocs[0] {
			t.Fatalf("request %d returned different result", i)
		}
	}
	m := s.Metrics()
	if misses := m.Get("cache_misses"); misses != 1 {
		t.Errorf("cache_misses = %d, want exactly 1 (single-flight)", misses)
	}
	if reqs := m.Get("requests"); reqs != n {
		t.Errorf("requests = %d, want %d", reqs, n)
	}
	if got := m.Get("cache_hits") + m.Get("singleflight_shared"); got != n-1 {
		t.Errorf("hits+shared = %d, want %d", got, n-1)
	}
}

// TestCheckedMode: check:true routes through the per-pass validation
// machinery and reports clean diagnostics for correct code.
func TestCheckedMode(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, out, raw := postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Level: "reassoc", Check: true})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(out.Diagnostics) != 0 {
		t.Errorf("clean program produced diagnostics: %v", out.Diagnostics)
	}
	// Checked and unchecked results live under distinct keys.
	_, plain, _ := postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Level: "reassoc"})
	if plain.Key == out.Key {
		t.Error("checked and unchecked requests share a cache key")
	}
}

// TestBadRequests: malformed body, unknown level, broken source.
func TestBadRequests(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}

	if code, _, raw := postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Level: "bogus"}); code != http.StatusBadRequest {
		t.Errorf("unknown level: status %d %s", code, raw)
	}
	if code, _, raw := postOptimize(t, ts, OptimizeRequest{Source: "func ("}); code != http.StatusBadRequest {
		t.Errorf("broken source: status %d %s", code, raw)
	}
	if code, _, _ := postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Lang: "pascal"}); code != http.StatusBadRequest {
		t.Errorf("unknown language: status %d", code)
	}

	resp, err = ts.Client().Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize: status %d", resp.StatusCode)
	}

	if errors := s.Metrics().Get("errors"); errors < 3 {
		t.Errorf("errors counter = %d, want >= 3", errors)
	}
}

// TestDebugVars: /debug/vars serves the counters, the per-pass timing
// map and the queue-depth gauge as JSON.
// TestDebugPprof verifies the live-profiling surface: the pprof index
// and a sample profile are served off the debug mux.
func TestDebugPprof(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/goroutine"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestDebugVars(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Level: "dist"})

	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{
		"requests", "cache_hits", "cache_misses", "singleflight_shared",
		"queue_depth", "in_flight", "pass_nanos", "pass_count",
		"pass_changed", "analysis_builds",
		"timeouts", "rejected", "errors",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	if vars["requests"].(float64) != 1 {
		t.Errorf("requests = %v, want 1", vars["requests"])
	}
	// The dist pipeline ran: per-pass wall time must be recorded for
	// its passes.
	passNanos, ok := vars["pass_nanos"].(map[string]any)
	if !ok || len(passNanos) == 0 {
		t.Fatalf("pass_nanos empty or wrong shape: %v", vars["pass_nanos"])
	}
	for _, pass := range []string{"reassoc-dist", "gvn", "pre", "dce"} {
		if _, ok := passNanos[pass]; !ok {
			t.Errorf("pass_nanos missing %q: %v", pass, passNanos)
		}
	}
	// The SSA round-trip passes always report changed, and the run built
	// dominators at least once — the new pass-manager counters must show
	// both.
	passChanged, ok := vars["pass_changed"].(map[string]any)
	if !ok || len(passChanged) == 0 {
		t.Fatalf("pass_changed empty or wrong shape: %v", vars["pass_changed"])
	}
	for _, pass := range []string{"reassoc-dist", "gvn"} {
		if n, _ := passChanged[pass].(float64); n < 1 {
			t.Errorf("pass_changed[%q] = %v, want >= 1", pass, passChanged[pass])
		}
	}
	builds, ok := vars["analysis_builds"].(map[string]any)
	if !ok {
		t.Fatalf("analysis_builds wrong shape: %v", vars["analysis_builds"])
	}
	if n, _ := builds["dom"].(float64); n < 1 {
		t.Errorf("analysis_builds[dom] = %v, want >= 1", builds["dom"])
	}
}

// TestLevelsEndpoint: /levels lists the pipelines and a sorted pass
// inventory.
func TestLevelsEndpoint(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/levels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Version string `json:"version"`
		Levels  []struct {
			Name   string   `json:"name"`
			Passes []string `json:"passes"`
		} `json:"levels"`
		Passes []string `json:"passes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != s.Version() {
		t.Errorf("version %q, want %q", out.Version, s.Version())
	}
	if len(out.Levels) != 4 {
		t.Errorf("want 4 levels, got %d", len(out.Levels))
	}
	for i := 1; i < len(out.Passes); i++ {
		if out.Passes[i-1] >= out.Passes[i] {
			t.Errorf("pass inventory not sorted at %d: %v", i, out.Passes)
		}
	}
}

// TestTimeout: a request whose deadline expires before the
// optimization can run returns 504 and bumps the timeouts counter.
// (A one-nanosecond budget is already spent by the time the request is
// admitted, so the outcome is deterministic; mid-interpretation
// cancellation is covered by the interp and core context tests.)
func TestTimeout(t *testing.T) {
	s := newServer(t, Config{Timeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, raw := postOptimize(t, ts, OptimizeRequest{Source: serveSrc, Level: "dist", Check: true})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, raw)
	}
	if n := s.Metrics().Get("timeouts"); n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
}

// TestHealthzAndSIGTERM: the daemon reports healthy, then drains
// gracefully when SIGTERM arrives — the in-flight request completes,
// Run returns nil, and liveness flips to draining.
func TestHealthzAndSIGTERM(t *testing.T) {
	s := newServer(t, Config{DrainTimeout: 5 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signalContext(t)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()
	base := "http://" + l.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// An optimize request in flight when the signal arrives must still
	// complete.  Wait until the handler has the request before sending
	// SIGTERM so the drain actually has something to wait for.
	reqBody, _ := json.Marshal(OptimizeRequest{Source: serveSrc, Level: "dist"})
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request got %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Get("requests") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("optimize request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain within 10s of SIGTERM")
	}
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}
}

// signalContext builds the daemon's signal-bound context without
// killing the test process.
func signalContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return NotifyContext(context.Background())
}
