package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// arena is an append-only store whose elements never move, so a
// goroutine may be handed a pointer to its slot while the owner keeps
// appending. Only the owner calls next and each.
type arena[T any] struct {
	chunks [][]T
	n      int
}

const arenaChunk = 1 << 14

func (a *arena[T]) next() *T {
	if a.n%arenaChunk == 0 {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	p := &a.chunks[a.n/arenaChunk][a.n%arenaChunk]
	a.n++
	return p
}

func (a *arena[T]) each(fn func(*T)) {
	for i := 0; i < a.n; i++ {
		fn(&a.chunks[i/arenaChunk][i%arenaChunk])
	}
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRounds is how many times a workload builds its state; setup_s is
// the median, and the state built last is the one measured.
const setupRounds = 9

// timeSetup runs build setupRounds times, tearing down every state but
// the last, and returns the last state with the median build time.
func timeSetup[S any](build func() (S, error), teardown func(S)) (S, float64, error) {
	var (
		s     S
		times []float64
	)
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		s, err = build()
		if err != nil {
			return s, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRounds-1 {
			teardown(s)
		}
	}
	return s, median(times), nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func perCommit(n, commits uint64) float64 {
	if commits == 0 {
		return 0
	}
	return float64(n) / float64(commits)
}
