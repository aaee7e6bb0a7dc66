package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

func shardSrc(i int) string {
	return fmt.Sprintf(`
func driver(n: int): int {
    var s: int = %d
    for i = 1 to n {
        s = s + i * n + %d
    }
    return s
}
`, i, i*11)
}

// startPeers binds n listeners, builds one server per listener with the
// caller's config (given every peer URL), and serves them for the test's
// lifetime.
func startPeers(t *testing.T, n int, cfg func(i int, urls []string) Config) ([]*Server, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = newServer(t, cfg(i, urls))
		go servers[i].Serve(listeners[i])
		s := servers[i]
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
	}
	return servers, urls
}

func postURL(t *testing.T, base string, req OptimizeRequest) (int, OptimizeResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out OptimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
	} else {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return resp.StatusCode, out, resp.Header
}

// defaultKeyFor computes the cache key a server assigns a default
// (awz/drechsler, unchecked) request — so tests can consult the ring
// from outside.
func defaultKeyFor(t *testing.T, src, level string) string {
	t.Helper()
	prog, langName, err := parseSource(src, "")
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.ParseLevel(level)
	if err != nil {
		t.Fatal(err)
	}
	version := core.PipelineVersionFor(core.PREDrechsler)
	return CacheKey(prog.String(), langName, string(lvl), version, false)
}

// TestTwoPeerSharding is the acceptance scenario: two in-process peers
// on one consistent-hash ring; every request lands on peer 0; keys
// owned by peer 1 are forwarded there (and answered byte-identically to
// a direct optimization); a second pass is pure cache hits — each
// distinct program is computed exactly once cluster-wide, which is
// precisely what two uncoordinated caches cannot do.
func TestTwoPeerSharding(t *testing.T) {
	servers, urls := startPeers(t, 2, func(i int, urls []string) Config {
		return Config{Peers: urls, Self: urls[i], Workers: 2}
	})
	const n = 24
	first := make([]OptimizeResponse, n)
	forwarded := 0
	for i := 0; i < n; i++ {
		_, out, hdr := postURL(t, urls[0], OptimizeRequest{Source: shardSrc(i), Level: "dist"})
		first[i] = out
		if by := hdr.Get(servedByHeader); by != "" {
			if by != urls[1] {
				t.Errorf("request %d relayed by unexpected peer %q", i, by)
			}
			forwarded++
		}
	}
	if forwarded == 0 || forwarded == n {
		t.Fatalf("forwarded %d/%d requests; want a split across both peers", forwarded, n)
	}
	m0, m1 := servers[0].Metrics(), servers[1].Metrics()
	if got := m0.Get("peer_forwards"); got != int64(forwarded) {
		t.Errorf("peer_forwards = %d, want %d", got, forwarded)
	}
	if got := m0.Get("peer_forward_errors"); got != 0 {
		t.Errorf("peer_forward_errors = %d, want 0", got)
	}
	if got := m1.Get("requests"); got != int64(forwarded) {
		t.Errorf("peer 1 requests = %d, want %d", got, forwarded)
	}

	// The forwarded path returns exactly the bytes a direct, in-process
	// optimization produces.
	prog, _, err := parseSource(shardSrc(0), "")
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.ParseLevel("dist")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.OptimizeWith(prog, lvl, core.OptimizeOptions{
		PRE: core.PREDrechsler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].ILOC != direct.String() {
		t.Errorf("served ILOC differs from direct core.Optimize output")
	}

	// Second pass: every response is a cache hit somewhere on the ring,
	// byte-identical to the first pass.
	for i := 0; i < n; i++ {
		_, out, _ := postURL(t, urls[0], OptimizeRequest{Source: shardSrc(i), Level: "dist"})
		if !out.Cached {
			t.Errorf("second-pass request %d missed", i)
		}
		if out.Key != first[i].Key || out.ILOC != first[i].ILOC {
			t.Errorf("second-pass request %d differs from the first pass", i)
		}
	}
	if misses := m0.Get("cache_misses") + m1.Get("cache_misses"); misses != n {
		t.Errorf("cluster-wide cache_misses = %d after 2x%d requests, want %d", misses, n, n)
	}
}

// TestTwoPeerBatch: a batch sent to one peer forwards the items owned
// by the other peer as a sub-batch; results come back in order and
// match the single endpoint.
func TestTwoPeerBatch(t *testing.T) {
	servers, urls := startPeers(t, 2, func(i int, urls []string) Config {
		return Config{Peers: urls, Self: urls[i], Workers: 2}
	})
	const n = 12
	req := BatchRequest{Defaults: &BatchDefaults{Level: "dist"}}
	for i := 0; i < n; i++ {
		req.Items = append(req.Items, OptimizeRequest{Source: shardSrc(i)})
	}
	body, _ := json.Marshal(&req)
	resp, err := http.Post(urls[0]+"/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != n {
		t.Fatalf("%d items, want %d", len(out.Items), n)
	}
	for i, item := range out.Items {
		if item.Index != i || item.Error != "" || item.OptimizeResponse == nil {
			t.Fatalf("item %d: index=%d error=%q", i, item.Index, item.Error)
		}
		// Every item must match the single endpoint (asked of the peer
		// that owns it, which after the batch has it cached).
		_, single, _ := postURL(t, urls[0], OptimizeRequest{Source: shardSrc(i), Level: "dist"})
		if single.Key != item.Key || single.ILOC != item.ILOC {
			t.Errorf("item %d differs from the single endpoint", i)
		}
	}
	m0, m1 := servers[0].Metrics(), servers[1].Metrics()
	if m0.Get("peer_forwards") == 0 {
		t.Error("batch never forwarded a sub-batch")
	}
	if m1.Get("batch_requests") == 0 {
		t.Error("peer 1 never received a sub-batch")
	}
	if misses := m0.Get("cache_misses") + m1.Get("cache_misses"); misses != n {
		t.Errorf("cluster-wide cache_misses = %d, want %d", misses, n)
	}
}

// TestForwardLoopGuard: peers with *disagreeing* rings (different vnode
// counts) cannot bounce a request forever — the loop-guard header makes
// the recipient of a forward serve locally no matter what its own ring
// says, so forwarding terminates after one hop.
func TestForwardLoopGuard(t *testing.T) {
	vnodes := []int{128, 64}
	servers, urls := startPeers(t, 2, func(i int, urls []string) Config {
		return Config{Peers: urls, Self: urls[i], Vnodes: vnodes[i]}
	})
	r0, r1 := NewRing(urls, vnodes[0]), NewRing(urls, vnodes[1])

	// Find a program both rings want to disown: peer 0 says peer 1 owns
	// it, peer 1 says peer 0 owns it.  Without the loop guard this
	// request would ping-pong forever.
	src := ""
	for i := 0; i < 4096; i++ {
		key := defaultKeyFor(t, shardSrc(i), "dist")
		if r0.Owner(key) == urls[1] && r1.Owner(key) == urls[0] {
			src = shardSrc(i)
			break
		}
	}
	if src == "" {
		t.Fatal("no disagreement key found in 4096 candidates")
	}

	_, out, hdr := postURL(t, urls[0], OptimizeRequest{Source: src, Level: "dist"})
	if out.ILOC == "" {
		t.Fatal("empty result")
	}
	if by := hdr.Get(servedByHeader); by != urls[1] {
		t.Errorf("served-by = %q, want %q", by, urls[1])
	}
	m0, m1 := servers[0].Metrics(), servers[1].Metrics()
	if m0.Get("peer_forwards") != 1 {
		t.Errorf("peer 0 forwards = %d, want 1", m0.Get("peer_forwards"))
	}
	// The guard: peer 1 computed locally instead of forwarding back.
	if m1.Get("peer_forwards") != 0 {
		t.Errorf("peer 1 forwarded a forwarded request (%d times): loop guard broken", m1.Get("peer_forwards"))
	}
	if m1.Get("cache_misses") != 1 {
		t.Errorf("peer 1 cache_misses = %d, want 1", m1.Get("cache_misses"))
	}
}

// TestPeerDownFallback: when the ring owner is unreachable the request
// is served locally (no lost requests), the forward-error counter ticks,
// and /healthz?probe=1 reports the peer unreachable with its last error.
func TestPeerDownFallback(t *testing.T) {
	// A listener that is immediately closed: a real address that refuses
	// connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	servers, urls := startPeers(t, 1, func(i int, urls []string) Config {
		return Config{Peers: []string{urls[0], deadURL}, Self: urls[0]}
	})
	s := servers[0]
	ring := NewRing([]string{urls[0], deadURL}, DefaultVnodes)

	// Find a key the dead peer owns.
	src := ""
	for i := 0; i < 4096; i++ {
		if ring.Owner(defaultKeyFor(t, shardSrc(i), "dist")) == deadURL {
			src = shardSrc(i)
			break
		}
	}
	if src == "" {
		t.Fatal("no key owned by the dead peer in 4096 candidates")
	}

	_, out, hdr := postURL(t, urls[0], OptimizeRequest{Source: src, Level: "dist"})
	if out.ILOC == "" {
		t.Fatal("empty result")
	}
	if by := hdr.Get(servedByHeader); by != "" {
		t.Errorf("response claims to be relayed from %q", by)
	}
	m := s.Metrics()
	if m.Get("peer_forward_errors") != 1 {
		t.Errorf("peer_forward_errors = %d, want 1", m.Get("peer_forward_errors"))
	}
	if m.Get("cache_misses") != 1 {
		t.Errorf("cache_misses = %d, want 1 (served locally)", m.Get("cache_misses"))
	}

	// Health: the probe marks the dead peer unreachable.
	resp, err := http.Get(urls[0] + "/healthz?probe=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string       `json:"status"`
		Self   string       `json:"self"`
		Ring   []string     `json:"ring"`
		Peers  []PeerStatus `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Self != urls[0] {
		t.Errorf("health = %+v", health)
	}
	if len(health.Ring) != 2 {
		t.Errorf("ring = %v, want both peers", health.Ring)
	}
	if len(health.Peers) != 1 {
		t.Fatalf("peers = %+v, want just the dead peer", health.Peers)
	}
	p := health.Peers[0]
	if p.URL != deadURL || p.Reachable || !p.Contacted || p.LastError == "" {
		t.Errorf("dead peer status = %+v", p)
	}
	if p.Forwards != 1 || p.ForwardErrors != 1 {
		t.Errorf("dead peer forwards/errors = %d/%d, want 1/1", p.Forwards, p.ForwardErrors)
	}
}
