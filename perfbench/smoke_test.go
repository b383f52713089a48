package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a tiny size, traced (which makes the
// untraced run too), and checks that every end-to-end and per-layer
// metric BENCHMARK.json names is reported with its unit, that the
// correctness gates pass, and that the layers a workload bypasses read
// zero.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: t.TempDir(), seed: 7, seconds: 1}
	for _, name := range []string{"live-point", "live-hotset", "sim-exp1"} {
		t.Run(name, func(t *testing.T) {
			rep, err := run(cfg, name, true, sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range rep.Gates {
				if !g.OK {
					t.Errorf("gate %s failed: %s", g.Name, g.Reason)
				}
			}
			if !rep.Result.Correct || rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
				t.Errorf("result: correct=%v attempted=%d failed=%d", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
			}
			for _, m := range sp.EndToEnd {
				for phase, got := range map[string]metrics{"untraced": rep.EndToEnd, "traced": rep.TracedE2E} {
					v, ok := got[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("%s end-to-end %s: got %+v, want unit %s", phase, m.Name, v, m.Unit)
					} else if v.Value <= 0 {
						t.Errorf("%s end-to-end %s = %g, want > 0", phase, m.Name, v.Value)
					}
				}
			}
			for _, m := range sp.PerLayer {
				v, ok := rep.Result.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, v, m.Unit)
				}
			}
			bypassed := name != "live-hotset"
			for _, m := range sp.PerLayer {
				if !strings.HasPrefix(m.Name, "wal.") && !strings.HasPrefix(m.Name, "storage.") {
					continue
				}
				if v := rep.Result.Metrics[m.Name].Value; bypassed && v != 0 {
					t.Errorf("%s bypasses %s but it reads %g", name, m.Name, v)
				}
			}
			if !bypassed {
				for _, k := range []string{"wal.syncs_per_commit", "wal.sync_us_p50", "storage.read_bytes_per_commit", "storage.space_per_live_byte"} {
					if rep.Result.Metrics[k].Value <= 0 {
						t.Errorf("%s = %g on live-hotset, want > 0", k, rep.Result.Metrics[k].Value)
					}
				}
			}
			if rep.Result.Metrics["sched.decisions_per_commit"].Value <= 0 {
				t.Errorf("sched.decisions_per_commit not measured")
			}
		})
	}
}

// TestCompareRefusesOtherHost checks that reports taken on different
// hosts are not compared.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	a := report{Host: host{Cores: 2, CPUModel: "x"}, Workload: "sim-exp1", Seconds: 10,
		Result: result{Metrics: metrics{"wall_s": {Value: 1, Unit: "s"}}}}
	b := a
	b.Host.Cores = 8
	write := func(name string, r report) string {
		p := filepath.Join(dir, name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := write("a.json", a), write("b.json", b)
	var out strings.Builder
	if err := compareReports(&out, pa, pb); err == nil || !strings.Contains(err.Error(), "across hosts") {
		t.Fatalf("compare across hosts: err = %v", err)
	}
	if err := compareReports(&out, pa, pa); err != nil {
		t.Fatalf("compare on one host: %v", err)
	}
	if !strings.Contains(out.String(), "wall_s") {
		t.Fatalf("compare printed %q", out.String())
	}
}
