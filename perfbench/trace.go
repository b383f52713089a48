package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"batsched/internal/obs"
)

// span is one transaction as the benchmark saw it from outside the
// controller. Times are nanoseconds since the run's epoch.
type span struct {
	id     int64
	due    int64    // when the arrival was due (closed loop: the Run call)
	start  int64    // Run called
	steps  [3]int64 // work callback entered, per step (traced runs only)
	nsteps int8
	end    int64 // Run returned
	failed bool
}

// families are the scheduler labels the per-family sched metrics cover:
// the Experiment 1 line-up, which includes both live schedulers.
var families = []string{"NODC", "ASL", "CHAIN", "K2", "C2PL"}

// famStats aggregates one scheduler family's decisions.
type famStats struct {
	durs             []float64 // wall time per sampled decision, µs (live only)
	admits, requests uint64
	granted          uint64
	graphSum, sumUS  float64
	meanUS, p99US    float64
}

func (f *famStats) n() uint64 { return f.admits + f.requests }

// collector is the traced live runs' obs.Observer: it keeps the wall
// time of every scheduler decision (reported by the sched.Observed
// wrapper that live.WithObserver installs) and of every WAL
// group-commit fsync. It records only while on, so set-up traffic is
// left out.
type collector struct {
	on      atomic.Bool
	every   int // decision times are kept for transaction ids divisible by every
	mu      sync.Mutex
	fam     map[string]*famStats
	walSync []float64 // µs per fsync pass
}

func newCollector(every int) *collector {
	return &collector{every: every, fam: map[string]*famStats{}}
}

func (c *collector) Observe(e obs.Event) {
	if !c.on.Load() {
		return
	}
	switch e.Kind {
	case obs.KindDecision:
		c.mu.Lock()
		f := c.fam[e.Sched]
		if f == nil {
			f = &famStats{}
			c.fam[e.Sched] = f
		}
		if int64(e.Txn)%int64(c.every) == 0 {
			f.durs = append(f.durs, us(e.DurNS))
			f.sumUS += us(e.DurNS)
		}
		if e.Op == "admit" {
			f.admits++
		} else {
			f.requests++
		}
		if e.Decision == "granted" {
			f.granted++
		}
		f.graphSum += float64(e.Graph)
		c.mu.Unlock()
	case obs.KindWALSync:
		c.mu.Lock()
		c.walSync = append(c.walSync, us(e.DurNS))
		c.mu.Unlock()
	}
}

// families finalizes the per-family statistics. Call after the run.
func (c *collector) families() map[string]*famStats {
	for _, f := range c.fam {
		// Scale the sampled decision time up to every decision.
		if len(f.durs) > 0 {
			f.sumUS *= float64(f.n()) / float64(len(f.durs))
		}
		f.meanUS = mean(f.durs)
		f.p99US = quantile(f.durs, 0.99)
	}
	return c.fam
}

// setSchedMetrics reports the sched layer: every decision the
// scheduler made in the measured interval, per family and overall.
// busyS is the wall time available to decide in (wall × workers).
func setSchedMetrics(m metrics, fams map[string]*famStats, allP99 float64, commits uint64, busyS float64) {
	var n, granted uint64
	var graphSum, sumUS float64
	for _, name := range families {
		f := fams[name]
		if f == nil {
			continue
		}
		n += f.n()
		granted += f.granted
		graphSum += f.graphSum
		sumUS += f.sumUS
		m.set("sched."+name+".decide_us_mean", "us", f.meanUS)
		m.set("sched."+name+".decide_us_p99", "us", f.p99US)
		m.set("sched."+name+".admits_per_commit", "count", perCommit(f.admits, commits))
		m.set("sched."+name+".requests_per_commit", "count", perCommit(f.requests, commits))
	}
	if n == 0 {
		return
	}
	m.set("sched.decide_us_mean", "us", sumUS/float64(n))
	m.set("sched.decide_us_p99", "us", allP99)
	m.set("sched.decisions_per_commit", "count", perCommit(n, commits))
	m.set("sched.grant_ratio", "ratio", float64(granted)/float64(n))
	m.set("sched.wtpg_size_mean", "count", graphSum/float64(n))
	m.set("sched.decide_share", "ratio", sumUS/1e6/busyS)
}

// maxSpansWritten caps the trace dump: the metrics use every recorded span, the
// file keeps the first ones so its size does not grow with throughput.
const maxSpansWritten = 20000

// spanOut is one span in the trace dump: a transaction root with its
// step and commit children, all sharing the transaction's id.
type spanOut struct {
	ID      int64   `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Failed  bool    `json:"failed,omitempty"`
}

// writeSpans dumps the first maxSpansWritten transactions of a traced
// run as JSON lines under .bench_build/traces and returns the file path.
// Children: "step<i>" from the callback entry to the next callback entry
// (the last step to Run's return is "commit"), and "admit" from the Run
// call to the first callback.
func writeSpans(cfg config, name string, spans *arena[span]) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	written := 0
	spans.each(func(s *span) {
		if written >= maxSpansWritten || err != nil {
			return
		}
		written++
		out := []spanOut{{ID: s.id, Name: "txn", StartUS: us(s.due), EndUS: us(s.end), Failed: s.failed}}
		prev, prevName := s.start, "admit"
		for i := 0; i < int(s.nsteps); i++ {
			out = append(out, spanOut{ID: s.id, Name: prevName, Parent: "txn", StartUS: us(prev), EndUS: us(s.steps[i])})
			prev, prevName = s.steps[i], fmt.Sprintf("step%d", i)
		}
		if s.nsteps > 0 {
			prevName = "commit"
		}
		out = append(out, spanOut{ID: s.id, Name: prevName, Parent: "txn", StartUS: us(prev), EndUS: us(s.end)})
		for i := range out {
			if err = enc.Encode(out[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// setLiveTraced reports a traced live run's live and sched metrics and
// writes its spans out.
func setLiveTraced(cfg config, name string, o *outcome, d *runner, col *collector, retries, commits uint64, wall float64) error {
	setLiveLayerMetrics(o.layer, &d.spans)
	o.layer.set("live.retries_per_commit", "count", perCommit(retries, commits))
	fams := col.families()
	var all []float64
	for _, f := range fams {
		all = append(all, f.durs...)
	}
	setSchedMetrics(o.layer, fams, quantile(all, 0.99), commits, wall*float64(runtime.GOMAXPROCS(0)))
	path, err := writeSpans(cfg, name, &d.spans)
	if err != nil {
		return err
	}
	o.info["spans"] = path
	return nil
}

// setLiveLayerMetrics derives the live layer's metrics from the spans of
// a traced run: admission and first lock, the gaps between steps, and
// the commit tail (WAL force, effect apply, release).
func setLiveLayerMetrics(m metrics, spans *arena[span]) {
	var first, gap, tail []float64
	spans.each(func(s *span) {
		if s.failed || s.nsteps == 0 {
			return
		}
		first = append(first, us(s.steps[0]-s.start))
		for i := 1; i < int(s.nsteps); i++ {
			gap = append(gap, us(s.steps[i]-s.steps[i-1]))
		}
		tail = append(tail, us(s.end-s.steps[s.nsteps-1]))
	})
	m.set("live.first_step_us_p50", "us", quantile(first, 0.50))
	m.set("live.first_step_us_p99", "us", quantile(first, 0.99))
	m.set("live.step_gap_us_p50", "us", quantile(gap, 0.50))
	m.set("live.step_gap_us_p99", "us", quantile(gap, 0.99))
	m.set("live.commit_tail_us_p50", "us", quantile(tail, 0.50))
	m.set("live.commit_tail_us_p99", "us", quantile(tail, 0.99))
}
