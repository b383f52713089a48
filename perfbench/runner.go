package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/live"
	"batsched/internal/txn"
)

// liveCosts are the scheduler costs both live workloads use (the live
// controller's tests use the same).
var liveCosts = sched.Costs{KeepTime: 50}

// runner starts transactions on a live controller, each on a fresh
// goroutine as a Go server handler would, and records them: a latency
// per transaction untraced, a span per transaction traced. The issuing
// goroutine owns the arenas; each transaction's goroutine writes only
// its own slot, and wait orders those writes before any read.
type runner struct {
	ctl    *live.Controller
	epoch  time.Time
	traced bool
	// onStep runs in the work callback, under the step's lock.
	onStep func(t *txn.T, step int)
	// onDone runs after Run returns.
	onDone func(t *txn.T, err error)

	wg     sync.WaitGroup
	ok     atomic.Int64
	failed atomic.Int64
	errMu  sync.Mutex
	err    error // first Run error

	// Every sampleEvery-th transaction started is recorded: a latency
	// untraced, a span traced. A fixed stride keeps the benchmark's own
	// memory small beside the program's, and start order is independent
	// of how long a transaction takes.
	sampleEvery int
	started     int
	lats        arena[float32] // untraced: µs from due time to Run's return
	spans       arena[span]    // traced
	ends        atomic.Int64   // latest Run return, ns since epoch
	marks       []mark         // slice boundaries, see mark
	// exchangeable says every slice does the same work, so the medians
	// may skip stolen slices (cleanSlices). A run whose work per
	// transaction grows keeps every slice: skipping some would move the
	// median along the trend.
	exchangeable bool
}

// mark is a slice boundary: how many transactions had been started and
// recorded by then, when it was, and the host's stolen and total CPU
// ticks at that moment.
type mark struct {
	started, recorded int
	at                int64
	steal, total      uint64
}

func newRunner(ctl *live.Controller, traced bool, sampleEvery int) *runner {
	return &runner{ctl: ctl, epoch: time.Now(), traced: traced, sampleEvery: sampleEvery}
}

// mark records a slice boundary now.
func (d *runner) mark() {
	steal, total := cpuTicks()
	d.marks = append(d.marks, mark{started: d.started, recorded: d.recorded(), at: d.now(), steal: steal, total: total})
}

// maxSteal is the share of the host's CPU time the hypervisor may take
// during a slice for the slice to count as clean.
const maxSteal = 0.02

// cleanSlices picks the slices (or grid repeats) the medians are taken
// over: those whose steal share is at most maxSteal, or, when fewer than
// half are, the least-stolen half. A program change moves every slice
// alike; CPU the hypervisor takes away moves only the slices it hits.
func cleanSlices(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := (len(idx) + 1) / 2
	for keep < len(idx) && steal[idx[keep]] <= maxSteal {
		keep++
	}
	idx = idx[:keep]
	sort.Ints(idx)
	return idx
}

// slices returns the indices k of the slices the medians use (slice k
// runs from mark k-1 to mark k) and every slice's steal share.
func (d *runner) slices() (use []int, steal []float64) {
	for k := 1; k < len(d.marks); k++ {
		a, b := d.marks[k-1], d.marks[k]
		share := 0.0
		if b.total > a.total {
			share = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
		steal = append(steal, share)
	}
	if !d.exchangeable {
		for k := range steal {
			use = append(use, k+1)
		}
		return use, steal
	}
	for _, i := range cleanSlices(steal) {
		use = append(use, i+1)
	}
	return use, steal
}

func (d *runner) now() int64 { return int64(time.Since(d.epoch)) }

// start runs t on its own goroutine. due is when the arrival was due
// (ns since epoch), or -1 for a closed loop, where latency starts at the
// Run call. release, if set, runs when the transaction has finished.
func (d *runner) start(t *txn.T, due int64, release func()) {
	var sp *span
	var lat *float32
	d.started++
	switch {
	case d.started%d.sampleEvery != 0:
	case d.traced:
		sp = d.spans.next()
		sp.id = int64(t.ID)
	default:
		lat = d.lats.next()
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if release != nil {
			defer release()
		}
		start := d.now()
		err := d.ctl.Run(context.Background(), t, func(step int, p live.Progress) error {
			if sp != nil && step < len(sp.steps) {
				sp.steps[step] = d.now()
				sp.nsteps = int8(step + 1)
			}
			if d.onStep != nil {
				d.onStep(t, step)
			}
			p(t.Steps[step].Cost)
			return nil
		})
		end := d.now()
		from := due
		if from < 0 {
			from = start
		}
		if sp != nil {
			sp.due, sp.start, sp.end, sp.failed = from, start, end, err != nil
		} else if lat != nil {
			*lat = float32(us(end - from))
		}
		for {
			last := d.ends.Load()
			if end <= last || d.ends.CompareAndSwap(last, end) {
				break
			}
		}
		if err != nil {
			d.failed.Add(1)
			d.errMu.Lock()
			if d.err == nil {
				d.err = err
			}
			d.errMu.Unlock()
		} else {
			d.ok.Add(1)
		}
		if d.onDone != nil {
			d.onDone(t, err)
		}
	}()
}

// wait blocks until every started transaction has finished.
func (d *runner) wait() { d.wg.Wait() }

// closedLoop keeps window transactions in flight until n have been
// started (n > 0) or, with n = 0, until the run has lasted dur. With
// slices > 0 it marks slices+1 boundaries: equal shares of n, or of dur.
func (d *runner) closedLoop(next func() *txn.T, window, n int, dur time.Duration, slices int) {
	slots := make(chan struct{}, window)
	release := func() { <-slots }
	if slices > 0 {
		d.mark()
	}
	for i := 0; ; i++ {
		if slices > 0 && (n > 0 || i%64 == 0) {
			k := len(d.marks)
			if (n > 0 && i >= k*n/slices) || (n == 0 && d.now() >= int64(k)*int64(dur)/int64(slices)) {
				d.mark()
				if len(d.marks) > slices {
					break
				}
			}
		}
		if n > 0 && i >= n {
			break
		}
		slots <- struct{}{}
		d.start(next(), -1, release)
	}
	d.wait()
}

// sliceRates returns, per clean slice, the transactions started per
// second. In a closed loop every start waits for a completion, so this
// is the commit rate.
func (d *runner) sliceRates() []float64 {
	use, _ := d.slices()
	var rates []float64
	for _, k := range use {
		a, b := d.marks[k-1], d.marks[k]
		rates = append(rates, float64(b.started-a.started)/(float64(b.at-a.at)/1e9))
	}
	return rates
}

// latencies returns every recorded transaction's latency in µs, in
// start order, so the marks' recorded counts index it.
func (d *runner) latencies() []float64 {
	var out []float64
	if d.traced {
		d.spans.each(func(s *span) { out = append(out, us(s.end-s.due)) })
		return out
	}
	out = make([]float64, 0, d.lats.n)
	d.lats.each(func(l *float32) { out = append(out, float64(*l)) })
	return out
}

// firstErr returns the first Run error, if any.
func (d *runner) firstErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// setLatency reports the end-to-end latency percentiles and their
// sample count. The run is cut into the time slices its marks bound;
// each clean slice gets its own percentiles and the reported value is
// their median, so a stall on a shared host moves one slice, not the
// result.
func setLatency(o *outcome, d *runner) {
	p50, p99 := d.sliceLatencies()
	use, steal := d.slices()
	o.e2e.set("latency_p50_us", "us", median(p50))
	o.e2e.set("latency_p99_us", "us", median(p99))
	o.info["latency_samples"] = d.recorded()
	o.info["latency_sample_every"] = d.sampleEvery
	o.info["latency_p50_us_slices"] = p50
	o.info["latency_p99_us_slices"] = p99
	o.info["slices_used"] = use
	o.info["slice_steal_share"] = steal
}

// sliceLatencies returns the p50 and p99 latency (µs) of each slice the
// medians use.
func (d *runner) sliceLatencies() (p50, p99 []float64) {
	lat := d.latencies()
	use, _ := d.slices()
	for _, k := range use {
		win := append([]float64(nil), lat[d.marks[k-1].recorded:d.marks[k].recorded]...)
		p50 = append(p50, quantile(win, 0.50))
		p99 = append(p99, quantile(win, 0.99))
	}
	return p50, p99
}

// recorded is how many transactions were recorded.
func (d *runner) recorded() int {
	if d.traced {
		return d.spans.n
	}
	return d.lats.n
}

// checkController runs the gates every live workload shares: no Run
// failed, the controller's invariants hold after drain, and it counted
// exactly the commits the runner saw.
func checkController(o *outcome, d *runner, before live.Stats) live.Stats {
	after := d.ctl.Stats()
	o.attempted += int(d.ok.Load() + d.failed.Load())
	o.failed += int(d.failed.Load())
	o.check("no_failed_runs", d.failed.Load() == 0, "%d of %d Run calls failed, first: %v",
		d.failed.Load(), d.ok.Load()+d.failed.Load(), d.firstErr())
	err := d.ctl.CheckInvariants()
	o.check("controller_invariants", err == nil, "CheckInvariants after drain: %v", err)
	commits := after.Committed - before.Committed
	o.check("committed_matches_runs", commits == uint64(d.ok.Load()),
		"Stats().Committed grew by %d, %d Run calls succeeded", commits, d.ok.Load())
	o.check("nothing_active_after_drain", after.Active == 0, "%d transactions still active", after.Active)
	return after
}
