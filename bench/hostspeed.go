package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host speed. On a shared virtual machine the host's speed drifts by
// 15% and more within seconds, and every CPU-bound timing moves with
// it. Over five minutes on a 2-vCPU Xeon VM, an 11-heuristic pass over
// 120 graphs, timed back to back with a fixed kernel, took 182–240ms
// (medians of 8-second windows, IQR 9% of the median); the pass time
// divided by the kernel time beside it had an IQR of 3%. So an untraced
// run times refKernel before and after every measured interval (a
// heuristic's pass over the corpus, a quarter second of served load),
// and rescales the interval's timings from the speed the kernel saw to
// that of a host on which it takes refNominal: each time is multiplied
// by refNominal over the mean of the two kernel times, and rates follow
// from the rescaled times. The kernel allocates nothing and runs after
// a collection with no request in flight, so neither the code under
// test nor the heap it leaves behind changes its time; only the host
// does. Result files keep the unscaled values too.

// refNominal is the kernel's median time on that 2-vCPU Xeon VM.
const refNominal = 27 * time.Millisecond

// hostClock times the kernel between a run's measured intervals, on as
// many goroutines at once as the measured work keeps busy: one for the
// corpus, both cores for a server and its client. A nil clock rescales
// nothing.
type hostClock struct {
	bufs    [][]uint64
	last    float64   // the latest kernel time, in seconds
	samples []float64 // every kernel time, in seconds
}

func newHostClock(threads int) *hostClock {
	h := &hostClock{bufs: make([][]uint64, threads)}
	for i := range h.bufs {
		h.bufs[i] = make([]uint64, 1<<18)
	}
	h.mark()
	return h
}

// refKernel fills buf with an xorshift sequence and sorts it.
func refKernel(buf []uint64) {
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	slices.Sort(buf)
}

// mark times the kernel to open a measured interval.
func (h *hostClock) mark() {
	if h == nil {
		return
	}
	runtime.GC()
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, buf := range h.bufs {
		wg.Add(1)
		go func(buf []uint64) {
			defer wg.Done()
			refKernel(buf)
		}(buf)
	}
	wg.Wait()
	h.last = time.Since(t0).Seconds()
	h.samples = append(h.samples, h.last)
}

// speed closes the interval opened by the previous mark or speed, and
// opens the next: it returns the host's speed over the interval as a
// multiple of the reference host's.
func (h *hostClock) speed() float64 {
	if h == nil {
		return 1
	}
	before := h.last
	h.mark()
	return refNominal.Seconds() / ((before + h.last) / 2)
}

// timings collects one quantity's measurements twice: as measured, and
// rescaled to the reference host's speed.
type timings struct {
	Raw []float64 `json:"unscaled"`
	Ref []float64 `json:"scaled"`
}

func (t *timings) add(v, speed float64) {
	t.Raw = append(t.Raw, v)
	t.Ref = append(t.Ref, v*speed)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
