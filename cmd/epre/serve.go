package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"flag"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/suite"
)

// cmdServe runs the optimization service until SIGINT/SIGTERM, then
// drains gracefully: in-flight requests complete, the worker pool
// empties, and the process exits 0.
func cmdServe(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent optimizations (default GOMAXPROCS)")
	queue := fs.Int("queue", 64, "additionally queued optimizations before shedding with 503")
	cacheSize := fs.Int("cache", 256, "result cache capacity, entries")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown budget")
	optParallel := fs.Int("opt-parallel", 1, "function-level parallelism inside one optimization")
	maxBatch := fs.Int("max-batch", 256, "maximum items per /optimize/batch request")
	cacheDir := fs.String("cache-dir", "", "persistent content-addressed result store directory (empty = memory only)")
	diskBytes := fs.Int64("disk-cache-bytes", 0, "on-disk store byte budget (0 = unlimited)")
	diskFsync := fs.Bool("disk-fsync", false, "fsync disk-store entries before the atomic rename")
	peers := fs.String("peers", "", "comma-separated base URLs of every ring peer, including this server")
	self := fs.String("self", "", "this server's base URL as it appears in -peers")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *self == "" {
			return fmt.Errorf("serve: -peers requires -self (this server's URL as listed in -peers)")
		}
		found := false
		for _, p := range peerList {
			found = found || p == *self
		}
		if !found {
			return fmt.Errorf("serve: -self %q is not in -peers %q", *self, *peers)
		}
	}

	s, err := serve.New(serve.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheSize:      *cacheSize,
		Timeout:        *timeout,
		DrainTimeout:   *drain,
		OptWorkers:     *optParallel,
		MaxBatch:       *maxBatch,
		CacheDir:       *cacheDir,
		DiskCacheBytes: *diskBytes,
		DiskFsync:      *diskFsync,
		Peers:          peerList,
		Self:           *self,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := serve.NotifyContext(context.Background())
	defer stop()
	fmt.Fprintf(stderr, "epre serve: listening on %s (pipeline %s)\n", l.Addr(), s.Version())
	err = s.Run(ctx, l)
	fmt.Fprintln(stderr, "epre serve: drained, bye")
	return err
}

// benchReport is the BENCH_serve.json schema: one serve-mode
// throughput measurement plus the serial-vs-parallel Table 1
// comparison, so the perf trajectory is tracked commit over commit.
type benchReport struct {
	Timestamp       string `json:"timestamp"`
	GoMaxProcs      int    `json:"gomaxprocs"`
	PipelineVersion string `json:"pipeline_version"`
	Serve           struct {
		Requests       int     `json:"requests"`
		Concurrency    int     `json:"concurrency"`
		UniquePrograms int     `json:"unique_programs"`
		WallSeconds    float64 `json:"wall_seconds"`
		RequestsPerSec float64 `json:"requests_per_sec"`
		P50Millis      float64 `json:"p50_ms"`
		P99Millis      float64 `json:"p99_ms"`
		CacheHits      int64   `json:"cache_hits"`
		CacheMisses    int64   `json:"cache_misses"`
		DupRequests    int     `json:"dup_requests"`
		Shared         int64   `json:"singleflight_shared"`
		Errors         int64   `json:"errors"`
	} `json:"serve"`
	Table1 struct {
		Workers         int     `json:"workers"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Speedup         float64 `json:"speedup"`
		Identical       bool    `json:"identical_output"`
	} `json:"table1"`
}

// cmdBench measures the service end to end — an in-process daemon under
// concurrent load over the whole suite corpus — and the parallel
// Table 1 run against the serial one, then writes the JSON report.
func cmdBench(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "", "serve/table1 report file (empty to skip writing; BENCH_serve.json is produced by `epre loadgen`)")
	passMgrOut := fs.String("passmgr-out", "BENCH_passmgr.json", "pass-manager/analysis-cache report file (empty to skip)")
	requests := fs.Int("requests", 200, "optimize requests to issue")
	concurrency := fs.Int("concurrency", 16, "concurrent clients")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "table1 worker count to compare against serial")
	level := fs.String("level", "reassoc", "optimization level for the serve workload")
	prof := addProfileFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected arguments %v", fs.Args())
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	rep := &benchReport{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		PipelineVersion: core.PipelineVersion(),
	}

	if err := benchServe(rep, *requests, *concurrency, *level); err != nil {
		return err
	}
	if err := benchTable1(rep, *parallel); err != nil {
		return err
	}
	if *passMgrOut != "" {
		if err := benchPassMgr(*passMgrOut, stdout); err != nil {
			return err
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	fmt.Fprintf(stdout, "serve:  %d reqs, %d clients: %.2f req/s (p50 %.1fms, p99 %.1fms; %d misses, %d hits, %d shared)\n",
		rep.Serve.Requests, rep.Serve.Concurrency, rep.Serve.RequestsPerSec,
		rep.Serve.P50Millis, rep.Serve.P99Millis,
		rep.Serve.CacheMisses, rep.Serve.CacheHits, rep.Serve.Shared)
	fmt.Fprintf(stdout, "table1: serial %.2fs, parallel(%d) %.2fs: %.2fx speedup, identical=%v\n",
		rep.Table1.SerialSeconds, rep.Table1.Workers, rep.Table1.ParallelSeconds,
		rep.Table1.Speedup, rep.Table1.Identical)
	return nil
}

// benchServe drives an in-process daemon with `concurrency` clients
// cycling `requests` optimize calls over the suite corpus.
func benchServe(rep *benchReport, requests, concurrency int, level string) error {
	corpus := suite.All()
	if len(corpus) == 0 {
		return fmt.Errorf("bench: empty suite corpus")
	}
	s, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go s.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	url := "http://" + l.Addr().String() + "/optimize"

	bodies := make([][]byte, len(corpus))
	for i, r := range corpus {
		b, err := json.Marshal(serve.OptimizeRequest{Source: r.Source, Level: level})
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}}
	jobs := make(chan int)
	lats := make([]time.Duration, requests)
	errc := make(chan error, concurrency)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		go func() {
			for i := range jobs {
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("bench: request %d: status %d", i, resp.StatusCode)
					return
				}
				lats[i] = time.Since(t0)
			}
			errc <- nil
		}()
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < concurrency; w++ {
		if err := <-errc; err != nil {
			return err
		}
	}
	wall := time.Since(start)

	// Single-flight exercise: barrier-released bursts of identical
	// requests at keys the main loop never touched (checked mode is its
	// own cache dimension).  The first computes; the rest must coalesce
	// onto that in-flight computation, so the dedup path — and its
	// counter — is actually driven by the bench, not just by unit tests.
	// Bursts start with the largest programs (the longest in-flight
	// window) and retry smaller ones only if a burst ever lost the race.
	const dupRequests = 16
	bySize := make([]int, len(corpus))
	for i := range bySize {
		bySize[i] = i
	}
	sort.Slice(bySize, func(a, b int) bool { return len(corpus[bySize[a]].Source) > len(corpus[bySize[b]].Source) })
	for attempt := 0; attempt < len(bySize); attempt++ {
		dupBody, err := json.Marshal(serve.OptimizeRequest{Source: corpus[bySize[attempt]].Source, Level: level, Check: true})
		if err != nil {
			return err
		}
		var dupWG sync.WaitGroup
		dupStart := make(chan struct{})
		dupErrs := make([]error, dupRequests)
		for i := 0; i < dupRequests; i++ {
			dupWG.Add(1)
			go func(i int) {
				defer dupWG.Done()
				<-dupStart
				resp, err := client.Post(url, "application/json", bytes.NewReader(dupBody))
				if err != nil {
					dupErrs[i] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					dupErrs[i] = fmt.Errorf("bench: duplicate burst: status %d", resp.StatusCode)
				}
			}(i)
		}
		close(dupStart)
		dupWG.Wait()
		for _, err := range dupErrs {
			if err != nil {
				return err
			}
		}
		if s.Metrics().Get("singleflight_shared") > 0 {
			break
		}
	}
	if shared := s.Metrics().Get("singleflight_shared"); shared == 0 {
		return fmt.Errorf("bench: concurrent duplicate requests never produced singleflight_shared > 0; dedup is broken")
	}

	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return float64(sorted[idx].Microseconds()) / 1000
	}

	m := s.Metrics()
	rep.Serve.Requests = requests
	rep.Serve.Concurrency = concurrency
	rep.Serve.UniquePrograms = len(corpus)
	rep.Serve.WallSeconds = wall.Seconds()
	rep.Serve.RequestsPerSec = float64(requests) / wall.Seconds()
	rep.Serve.P50Millis = pct(0.50)
	rep.Serve.P99Millis = pct(0.99)
	rep.Serve.CacheHits = m.Get("cache_hits")
	rep.Serve.CacheMisses = m.Get("cache_misses")
	rep.Serve.DupRequests = dupRequests
	rep.Serve.Shared = m.Get("singleflight_shared")
	rep.Serve.Errors = m.Get("errors")
	return nil
}

// benchTable1 times the serial suite measurement against the parallel
// one and verifies byte-identical rendering.
func benchTable1(rep *benchReport, workers int) error {
	ctx := context.Background()
	t0 := time.Now()
	serialRows, err := suite.Table1Ctx(ctx, 1)
	if err != nil {
		return err
	}
	serialWall := time.Since(t0)
	t1 := time.Now()
	parRows, err := suite.Table1Ctx(ctx, workers)
	if err != nil {
		return err
	}
	parWall := time.Since(t1)

	var serial, par bytes.Buffer
	suite.WriteTable1(&serial, serialRows)
	suite.WriteTable1(&par, parRows)

	rep.Table1.Workers = workers
	rep.Table1.SerialSeconds = serialWall.Seconds()
	rep.Table1.ParallelSeconds = parWall.Seconds()
	if parWall > 0 {
		rep.Table1.Speedup = serialWall.Seconds() / parWall.Seconds()
	}
	rep.Table1.Identical = bytes.Equal(serial.Bytes(), par.Bytes())
	if !rep.Table1.Identical {
		return fmt.Errorf("bench: parallel table1 output differs from serial")
	}
	return nil
}
