// Command perfbench is batsched's benchmark: one entry point that runs a
// named workload against the public APIs of the live controller, the
// experiment harness and simulator, the WAL and the storage engine,
// checks the outputs, and prints every metric by name with its unit.
//
//	perfbench -workload live-point -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the run measures the end-to-end metrics of BENCHMARK.json
// with no observer attached. With -trace 1 it makes the same untraced run
// first and then a traced one of at most tracedSeconds, and reports the
// per-layer metrics of the traced run plus the tracing overhead (traced
// minus untraced) of every end-to-end metric. Per-layer numbers come
// from outside the layers: timestamps taken around the calls into each
// public API and in the work callback, and counters the layers already
// export (Controller.Stats, Controller.WALStats, Store.Stats, obs
// events, experiments.Progress).
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// and the line before it is the full report: host block, gates, sizes and
// sample counts. The report is also written under .bench_build/results.
//
//	perfbench -compare old.json new.json
//
// prints metric deltas between two reports, and refuses reports taken on
// different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	root    string  // checkout root; everything written goes under root/.bench_build
	seed    int64   // input seed: the same seed gives the same inputs
	seconds float64 // run length; fixed-work workloads scale their size by it
}

// scratch returns a fresh directory under .bench_build for name.
func (c config) scratch(name string) (string, error) {
	base := filepath.Join(c.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// gate is one named correctness check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// outcome is what one phase (untraced or traced) of a workload measured.
type outcome struct {
	attempted, failed int
	e2e               metrics        // end-to-end metrics
	layer             metrics        // per-layer metrics (traced phase only)
	gates             []gate         // correctness checks
	info              map[string]any // sizes, sample counts, flags
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layer: metrics{}, info: map[string]any{}}
}

// check records a gate: ok, or failed with the formatted reason.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	g := gate{Name: name, OK: ok}
	if !ok {
		g.Reason = fmt.Sprintf(format, args...)
	}
	o.gates = append(o.gates, g)
}

// tracedSeconds caps the traced phase of a -trace 1 run. Its per-layer
// figures are medians and ratios that need no longer run, and a traced
// run stays under twice the length of an untraced one.
const tracedSeconds = 10

// workloadFunc runs one phase; traced selects the traced variant.
type workloadFunc func(cfg config, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"live-point":  runLivePoint,
	"live-hotset": runLiveHotset,
	"sim-exp1":    runSimExp1,
}

// spec is the part of BENCHMARK.json the program checks its output
// against: metric names and units.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the full record of one run.
type report struct {
	Host      host           `json:"host"`
	Workload  string         `json:"workload"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Gates     []gate         `json:"gates"`
	Info      map[string]any `json:"info"`
	EndToEnd  metrics        `json:"end_to_end"`
	PerLayer  metrics        `json:"per_layer,omitempty"`
	TracedE2E metrics        `json:"traced_end_to_end,omitempty"`
	Result    result         `json:"result"`
}

// run executes one workload and assembles its report.
func run(cfg config, name string, traced bool, sp *spec) (*report, error) {
	fn, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	steal0, total0 := cpuTicks()
	base, err := fn(cfg, false)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Host: hostInfo(cfg), Workload: name, Seconds: cfg.seconds, Trace: traced,
		Gates: base.gates, Info: base.info, EndToEnd: base.e2e,
	}
	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: metrics{}}
	for _, m := range sp.EndToEnd {
		v, ok := base.e2e[m.Name]
		if !ok || v.Unit != m.Unit {
			return nil, fmt.Errorf("%s: end-to-end metric %s (%s) not measured", name, m.Name, m.Unit)
		}
	}
	if !traced {
		for _, m := range sp.EndToEnd {
			res.Metrics[m.Name] = base.e2e[m.Name]
		}
	} else {
		tcfg := cfg
		tcfg.seconds = math.Min(cfg.seconds, tracedSeconds)
		tr, err := fn(tcfg, true)
		if err != nil {
			return nil, err
		}
		rep.Info["traced_seconds"] = tcfg.seconds
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		rep.Gates = append(rep.Gates, tr.gates...)
		for k, v := range tr.info {
			rep.Info["traced."+k] = v
		}
		rep.TracedE2E = tr.e2e
		layer := tr.layer
		for _, m := range sp.EndToEnd {
			t, ok := tr.e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: traced run did not measure %s", name, m.Name)
			}
			layer.set("bench.trace_overhead."+m.Name, m.Unit, t.Value-base.e2e[m.Name].Value)
		}
		layer.set("bench.failed_frac", "ratio", frac(res.Failed, res.Attempted))
		declared := map[string]bool{}
		for _, m := range sp.PerLayer {
			declared[m.Name] = true
			v, ok := layer[m.Name]
			if !ok {
				// A layer the workload bypasses reads zero.
				v = metric{Value: 0, Unit: m.Unit}
			}
			if v.Unit != m.Unit {
				return nil, fmt.Errorf("%s: metric %s measured in %s, declared in %s", name, m.Name, v.Unit, m.Unit)
			}
			res.Metrics[m.Name] = v
		}
		for k := range layer {
			if !declared[k] {
				return nil, fmt.Errorf("%s: per-layer metric %s is not declared in BENCHMARK.json", name, k)
			}
		}
		rep.PerLayer = res.Metrics
	}
	rep.Info["failed_frac"] = frac(res.Failed, res.Attempted)
	// The share of the host's CPU time the hypervisor took during the run:
	// on a shared VM the figures of a run with a large share are slower.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.Info["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	res.Correct = res.Attempted > 0
	for _, g := range rep.Gates {
		res.Correct = res.Correct && g.OK
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
		}
	}
	rep.Result = res
	return rep, nil
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json; scratch goes under .bench_build)")
		name     = flag.String("workload", "", "workload: live-point, live-hotset or sim-exp1")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "run length in seconds")
		traceArg = flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two report files")
			os.Exit(2)
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{root: *root, seed: *seed, seconds: float64(*seconds)}
	sp, err := loadSpec(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, *name, *traceArg == 1, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := saveReport(cfg, *name, *traceArg, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving report:", err)
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	fmt.Println(string(last))
	if !rep.Result.Correct {
		for _, g := range rep.Gates {
			if !g.OK {
				fmt.Fprintf(os.Stderr, "perfbench: gate %s failed: %s\n", g.Name, g.Reason)
			}
		}
		os.Exit(1)
	}
}

func saveReport(cfg config, name string, trace int, line []byte) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, trace))
	return os.WriteFile(file, append(line, '\n'), 0o644)
}
