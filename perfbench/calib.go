package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// On a shared machine, such as the 2-vCPU one the bounds were set on,
// speed drifts by 10-20% over minutes and drops severalfold for seconds
// at a time, for every program alike.  A run therefore also times a fixed kernel
// of the benchmark's own (sorting, hashing and integer work, touching
// no repository code and allocating nothing) and scales each time it
// measures by calRef over the kernel's time at that moment.  Timed
// metrics thus read in seconds of a machine on which the kernel takes
// calRef; the raw figures and the factors go to the report.

// calRef is the kernel's time, in seconds, on the reference machine
// (about its median on the 2-CPU machine the bounds were set on).
const calRef = 0.0115

// calEvery is how often a job loop re-times the kernel.
const calEvery = 500 * time.Millisecond

// calibrator runs the kernel on every processor at once, since the
// workloads keep both busy (the optimizer beside its own garbage
// collector, or the server beside its clients).
type calibrator struct {
	lanes   []*lane
	factors []float64 // every factor measured, for the report
}

// lane is one processor's copy of the kernel's input and scratch.
type lane struct {
	keys, work, table []uint32
	sink              uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		l := &lane{keys: make([]uint32, 1<<16), work: make([]uint32, 1<<16), table: make([]uint32, 1<<18)}
		x := uint32(2463534242)
		for j := range l.keys {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			l.keys[j] = x | 1
		}
		c.lanes = append(c.lanes, l)
	}
	return c
}

// kernel is the fixed calibration work of one lane.
func (l *lane) kernel() {
	copy(l.work, l.keys)
	slices.Sort(l.work)
	clear(l.table)
	mask := uint32(len(l.table) - 1)
	for _, k := range l.keys {
		h := (k * 2654435761) & mask
		for l.table[h] != 0 && l.table[h] != k {
			h = (h + 1) & mask
		}
		l.table[h] = k
	}
	x := l.work[len(l.work)/2]
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
	}
	l.sink += x
}

// factor times the kernel on all lanes three times and returns calRef
// over the median time: the number to multiply a time measured now by.
func (c *calibrator) factor() float64 {
	var t [3]float64
	for i := range t {
		start := time.Now()
		var wg sync.WaitGroup
		for _, l := range c.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.kernel()
			}()
		}
		wg.Wait()
		t[i] = since(start)
	}
	f := calRef / median(t[:])
	c.factors = append(c.factors, f)
	return f
}
