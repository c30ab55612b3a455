package main

import (
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram over nanoseconds: exact below
// 128 ns, then 128 buckets per power of two (each under 0.8% wide). It has
// a fixed size, so recording neither allocates nor grows with the run.
type latHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSub     = 128
	histBuckets = 48 * histSub // up to 2^47 ns, about 39 hours
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 8 // ns>>e lies in [128, 256)
	i := (e+1)*histSub + int(ns>>e) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns bucket i's lower bound and width in nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	m := i%histSub + histSub
	return float64(int64(m) << e), float64(int64(1) << e)
}

func (h *latHist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in milliseconds, interpolating within
// the bucket that holds rank q·(n−1).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, width := histBounds(i)
			return (lo + width*(rank-cum+0.5)/float64(c)) / 1e6
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return (lo + width) / 1e6
}
