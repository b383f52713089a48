package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/live"
	"batsched/internal/txn"
)

// live-point: the controller hot path alone. A closed loop keeps
// GOMAXPROCS transactions in flight, each on a fresh goroutine, against
// a 16-shard C2PL controller over 4096 partitions: 90% one write step,
// 10% a second write on a distant partition. No WAL, no storage, no
// simulator.
//
// The window is one transaction per P, not the 8×GOMAXPROCS that
// BenchmarkLiveThroughput uses: with more goroutines in flight than
// CPUs, a transaction's latency is mostly its wait in the Go run queue.
// On a 2-vCPU VM a window of 16 put p99 (≈450 µs, against a p50 of
// 5 µs) on the run queue's tail, and it spread by up to 32% from run to
// run; a window of 2 keeps p99 near 20 µs.
const (
	pointParts    = 4096
	pointShards   = 16
	pointSpanFrac = 0.10
	pointWarmup   = 20000 // transactions run during set-up, before timing
	pointSample   = 8     // record every 8th transaction's latency or span
	pointSlices   = 20    // time slices the run's medians are taken over
)

// pointLoad generates live-point transactions from a seed.
type pointLoad struct {
	rng *rand.Rand
	id  txn.ID
}

func (l *pointLoad) next() *txn.T {
	l.id++
	p := txn.PartitionID(l.rng.Intn(pointParts))
	steps := []txn.Step{{Mode: txn.Write, Part: p, Cost: 1}}
	if l.rng.Float64() < pointSpanFrac {
		steps = append(steps, txn.Step{Mode: txn.Write, Part: (p + pointParts/2) % pointParts, Cost: 1})
	}
	return txn.New(l.id, steps)
}

func runLivePoint(cfg config, traced bool) (*outcome, error) {
	o := newOutcome()
	window := runtime.GOMAXPROCS(0)
	var col *collector
	if traced {
		col = newCollector(pointSample)
	}
	build := func() (*live.Controller, error) {
		opts := []live.Option{live.WithShards(pointShards), live.WithRetryDelay(time.Millisecond)}
		if col != nil {
			opts = append(opts, live.WithObserver(col))
		}
		ctl := live.New(sched.C2PLFactory(), liveCosts, opts...)
		// Warm-up: goroutine stacks, pools and lock-table maps reach their
		// steady size before timing. IDs stay below the measured ones.
		warm := &pointLoad{rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed))}
		d := newRunner(ctl, false, pointSample)
		d.closedLoop(warm.next, window, pointWarmup, 0, 0)
		if err := d.firstErr(); err != nil {
			ctl.Close()
			return nil, fmt.Errorf("live-point warm-up: %w", err)
		}
		return ctl, nil
	}
	ctl, setupS, err := timeSetup(build, (*live.Controller).Close)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	// Lost-update check: every write step bumps its partition's counter
	// without synchronization of its own; the controller's exclusive
	// lock is the only thing keeping the increments from racing.
	counts := make([]int64, pointParts)
	d := newRunner(ctl, traced, pointSample)
	d.exchangeable = true
	d.onStep = func(t *txn.T, step int) { counts[t.Steps[step].Part]++ }
	var writes int64
	load := &pointLoad{rng: rand.New(rand.NewSource(cfg.seed)), id: pointWarmup}
	next := func() *txn.T {
		t := load.next()
		writes += int64(len(t.Steps))
		return t
	}
	before := ctl.Stats()
	if col != nil {
		col.on.Store(true)
	}
	d.epoch = time.Now()
	d.closedLoop(next, window, 0, time.Duration(cfg.seconds*float64(time.Second)), pointSlices)
	wall := float64(d.ends.Load()) / 1e9
	rss := peakRSSMB()
	if col != nil {
		col.on.Store(false)
	}
	after := checkController(o, d, before)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if d.failed.Load() == 0 {
		o.check("no_lost_updates", sum == writes, "partition counters sum to %d, committed write steps %d", sum, writes)
	}

	commits := after.Committed - before.Committed
	o.e2e.set("setup_s", "s", setupS)
	rates := d.sliceRates()
	o.e2e.set("throughput_txn_s", "1/s", median(rates))
	o.info["throughput_txn_s_slices"] = rates
	o.info["committed_per_wall_s"] = float64(commits) / wall
	setLatency(o, d)
	o.e2e.set("wall_s", "s", wall)
	o.e2e.set("peak_rss_mb", "MB", rss)
	o.info["window"] = window
	o.info["started"] = d.started
	if traced {
		if err := setLiveTraced(cfg, "live-point", o, d, col, after.Retries-before.Retries, commits, wall); err != nil {
			return nil, err
		}
	}
	return o, nil
}
