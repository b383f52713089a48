package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"batsched/internal/event"
	"batsched/internal/experiments"
	"batsched/internal/obs"
)

// sim-exp1: the paper's Experiment 1 grid (NODC/ASL/CHAIN/K2/C2PL × the
// 11 default λ, Pattern1 over 16 partitions) through
// experiments.RunExperiment1 with one worker per CPU, at a reduced
// horizon. Each cell runs simReplications seeds: seed-to-seed variation
// of the grid's wall time is large at a single seed, and the replicates
// average it out. The grid runs again and again until -seconds have
// passed (at least simMinRepeats times); wall_s is the median and every
// repeat must produce the identical result. The horizon stops growing
// at simMaxHorizonSeconds: a longer run makes more repeats of the same
// grid, not a bigger grid, because the grid's cost grows faster than
// its horizon and the host's speed drifts by ±10% within seconds, so
// the median of many repeats is what holds still.
//
// Latency here is time to result: for each grid job (one cell, one
// seed), the wall time from the RunExperiment1 call to the Progress
// callback reporting it done, pooled over the repeats.
const (
	simHorizonPerSecond  = 15_000 // simulated clocks of horizon per second of -seconds
	simMaxHorizonSeconds = 10     // so at most 150 000 clocks, about 2 s a grid on 2 vCPUs
	simReplications      = 8
	simMinRepeats        = 3
	simSeedStride        = 100_000 // keeps replicate seeds of different bench seeds apart
)

// decisionWallBounds are obs.SchedMetrics.DecisionWall's bucket bounds
// (µs, the 1-2-5 series from 1 to 5e5), so family histograms can be
// merged into one for the overall p99.
var decisionWallBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5}

// gridRun is one timed RunExperiment1 call.
type gridRun struct {
	res    *experiments.Experiment1Result
	wall   float64   // s
	done   []float64 // s since start, per completed grid job
	steal  float64   // share of the host's CPU time stolen meanwhile
	digest string
}

func runGrid(o experiments.Options, traced bool) (*gridRun, error) {
	var mu sync.Mutex
	g := &gridRun{}
	steal0, total0 := cpuTicks()
	start := time.Now()
	o.Progress = func(done, total int) {
		mu.Lock()
		g.done = append(g.done, time.Since(start).Seconds())
		mu.Unlock()
	}
	opts := []experiments.Option{experiments.WithParallelism(o.Workers)}
	if traced {
		opts = append(opts, experiments.WithMetrics())
	}
	res, err := experiments.RunExperiment1(o, opts...)
	g.wall = time.Since(start).Seconds()
	if steal1, total1 := cpuTicks(); total1 > total0 {
		g.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if err != nil {
		return nil, err
	}
	g.res = res
	h := sha256.New()
	for _, s := range res.Sweeps {
		for _, p := range s.Points {
			fmt.Fprintf(h, "%s %g %+v\n", s.Label, p.Lambda, *p.Result)
			for _, r := range p.Replicates {
				fmt.Fprintf(h, "  %+v\n", *r)
			}
		}
	}
	g.digest = hex.EncodeToString(h.Sum(nil))
	return g, nil
}

func runSimExp1(cfg config, traced bool) (*outcome, error) {
	o := newOutcome()
	workers := runtime.GOMAXPROCS(0)
	opts := experiments.Options{
		Horizon:      event.Time(simHorizonPerSecond * math.Min(cfg.seconds, simMaxHorizonSeconds)),
		Seed:         1 + cfg.seed*simSeedStride,
		Replications: simReplications,
		Workers:      workers,
	}
	// Set-up: the simulator keeps no state between runs, so its set-up
	// is the warm-up — one grid at a tenth of the horizon — which lets
	// code, allocator and scheduler paths reach steady state before
	// timing.
	warm := opts
	warm.Horizon /= 10
	_, setupS, err := timeSetup(func() (struct{}, error) {
		_, err := runGrid(warm, false)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("sim-exp1 warm-up: %w", err)
	}

	var runs []*gridRun
	failedRuns, repeats := 0, 0
	timed := time.Now()
	for ; repeats < simMinRepeats || time.Since(timed).Seconds() < cfg.seconds; repeats++ {
		g, err := runGrid(opts, traced)
		if err != nil {
			// RunExperiment1 fails a grid with a cell whose schedule is
			// not serializable; that is a failed run, not a benchmark error.
			failedRuns++
			o.check("grid_runs", false, "RunExperiment1: %v", err)
			continue
		}
		if len(runs) > 0 {
			g.res = nil // the first repeat's result is the one checked; the rest are compared by digest
		}
		runs = append(runs, g)
	}
	rss := peakRSSMB()
	if len(runs) == 0 {
		return nil, fmt.Errorf("sim-exp1: every grid run failed")
	}
	first := runs[0]
	completed, cells := 0, 0
	serialOK, serialWhy := true, ""
	for _, s := range first.res.Sweeps {
		for _, p := range s.Points {
			cells++
			completed += p.Result.Completed
			if s.Label == "NODC" {
				continue // intentionally non-serializable; the harness does not check it
			}
			reps := p.Replicates
			if len(reps) == 0 {
				reps = append(reps, p.Result)
			}
			for _, r := range reps {
				if !r.SerializabilityChecked {
					serialOK, serialWhy = false, fmt.Sprintf("%s @ λ=%g was not checked for serializability", s.Label, p.Lambda)
				}
			}
		}
	}
	// A grid cell is one operation; a failed RunExperiment1 call fails
	// all of its cells.
	o.attempted = cells * repeats
	o.failed = cells * failedRuns
	o.check("serializable", serialOK, "%s", serialWhy)
	same := true
	for _, g := range runs[1:] {
		same = same && g.digest == first.digest
	}
	o.check("grid_identical_across_repeats", same, "grid result digests differ across %d repeats of seed %d", len(runs), cfg.seed)
	o.check("grid_completes_transactions", completed > 0, "no simulated transaction completed")

	// Timings come from the clean repeats (see cleanSlices); every repeat
	// is checked.
	var steals, walls, done []float64
	for _, g := range runs {
		steals = append(steals, g.steal)
	}
	use := cleanSlices(steals)
	for _, i := range use {
		walls = append(walls, runs[i].wall)
		for _, t := range runs[i].done {
			done = append(done, t*1e6)
		}
	}
	wall := median(walls)
	o.e2e.set("setup_s", "s", setupS)
	o.e2e.set("wall_s", "s", wall)
	o.e2e.set("throughput_txn_s", "1/s", float64(completed)/wall)
	o.e2e.set("latency_p50_us", "us", quantile(done, 0.50))
	o.e2e.set("latency_p99_us", "us", quantile(done, 0.99))
	o.e2e.set("peak_rss_mb", "MB", rss)
	o.info["latency_samples"] = len(done)
	o.info["grid_walls_s"] = walls
	o.info["repeats_used"] = use
	o.info["repeat_steal_share"] = steals
	o.info["horizon_clocks"] = int64(opts.Horizon)
	o.info["replications"] = simReplications
	o.info["repeats"] = repeats
	o.info["workers"] = workers
	o.info["digest"] = first.digest

	if traced {
		m := o.layer
		var tails []float64
		for _, g := range runs {
			if n := len(g.done); n >= 2 {
				tails = append(tails, g.done[n-1]-g.done[n-2])
			}
		}
		m.set("experiments.tail_s", "s", median(tails))
		m.set("sim.completed", "count", float64(completed))
		setSimSchedMetrics(m, first.res, uint64(completed), first.wall*float64(workers))
	}
	return o, nil
}

// setSimSchedMetrics reads the sched layer off the per-cell obs.Metrics
// that experiments.WithMetrics collects (the sched.Observed wrapper times
// every decision). Per-event traces of a grid take about a gigabyte, so
// p99 here is the histogram's bucket bound, not a sample.
func setSimSchedMetrics(m metrics, res *experiments.Experiment1Result, commits uint64, busyS float64) {
	fams := map[string]*famStats{}
	all := obs.NewHistogram(decisionWallBounds...)
	for _, s := range res.Sweeps {
		fam := obs.NewHistogram(decisionWallBounds...)
		f := &famStats{}
		for _, p := range s.Points {
			if p.Metrics == nil {
				continue
			}
			sm := p.Metrics.Sched(s.Label)
			if sm == nil {
				continue
			}
			fam.Merge(sm.DecisionWall)
			for k, v := range sm.AdmitDecisions() {
				f.admits += v
				if k == "granted" {
					f.granted += v
				}
			}
			for k, v := range sm.RequestDecisions() {
				f.requests += v
				if k == "granted" {
					f.granted += v
				}
			}
			f.graphSum += sm.GraphSize.Mean() * float64(sm.GraphSize.Count())
		}
		all.Merge(fam)
		f.meanUS = fam.Mean()
		f.p99US = fam.Quantile(0.99)
		f.sumUS = fam.Mean() * float64(fam.Count())
		fams[s.Label] = f
	}
	setSchedMetrics(m, fams, all.Quantile(0.99), commits, busyS)
}
