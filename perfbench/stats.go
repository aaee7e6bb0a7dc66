package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// latencies is a sample of durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// median returns the middle value, or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail is the highest percentile of a sample that has at least
// tailBeyond samples above it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value_ms"`
	Samples    int     `json:"samples"`
	Segments   int     `json:"segments"`
}

// tailOf returns the tail of a sample; with too few samples for any
// percentile above the median it falls back to the maximum.
func tailOf(l latencies) tail {
	s := l.sorted()
	n := len(s)
	if n == 0 {
		return tail{}
	}
	if n <= 2*tailBeyond {
		return tail{Percentile: 100, Value: s[n-1], Samples: n}
	}
	i := n - tailBeyond - 1
	return tail{Percentile: 100 * float64(i+1) / float64(n), Value: s[i], Samples: n}
}

// segmentedTail splits a sample, in run order, into segments of
// segLen samples, drops the remainder, and returns the tail of the
// segment whose tail is the median.  A burst of interference from
// outside then moves one segment, not the result, and the tail's rank
// does not depend on how many samples the run happened to take.
// Samples counts the whole sample.
func segmentedTail(l latencies, segLen int) tail {
	k := max(1, len(l)/segLen)
	segLen = min(segLen, len(l))
	var tails []tail
	for i := 0; i < k; i++ {
		tails = append(tails, tailOf(l[i*segLen:(i+1)*segLen]))
	}
	sort.Slice(tails, func(a, b int) bool { return tails[a].Value < tails[b].Value })
	t := tails[len(tails)/2]
	t.Samples = len(l)
	t.Segments = k
	return t
}

// loglogSlope fits log(y) = a + slope·log(x) by least squares over the
// points with positive coordinates; it returns 0 with fewer than two
// distinct x values.
func loglogSlope(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		x, y := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if n < 2 || den < 1e-12 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// resetPeakRSS restarts the kernel's peak RSS count for the process.
func resetPeakRSS() {
	// Without the reset the peak is the process's; the error changes
	// nothing else.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
