package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/serve"
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
