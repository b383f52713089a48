package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host identifies where a run was measured. Numbers from different hosts
// are not comparable, so compareReports refuses them.
type host struct {
	Cores        int    `json:"cores"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	TmpFS        string `json:"tmp_fs"` // filesystem holding the scratch heap files and WAL
	Seed         int64  `json:"seed"`
	GitCommit    string `json:"git_commit"`    // "unavailable" outside a git checkout
	SourceSHA256 string `json:"source_sha256"` // digest of the Go sources and go.mod files built
}

func hostInfo(cfg config) host {
	return host{
		Cores:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		TmpFS:        fsType(filepath.Join(cfg.root, ".bench_build")),
		Seed:         cfg.seed,
		GitCommit:    gitCommit(cfg.root),
		SourceSHA256: sourceDigest(cfg.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType returns the type of the filesystem mounted at the longest mount
// point that prefixes path (Linux mountinfo), or "unknown".
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent major:minor root mountpoint options ... - fstype source super
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, tail[0]
		}
	}
	return typ
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go, go.mod and BENCHMARK.json file of the
// checkout (path and content, in path order), skipping .bench_build and
// .git, so two reports can be matched to the code they measured even
// where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "BENCHMARK.json") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "unavailable"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unavailable"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks returns the host's stolen and total CPU ticks so far (the
// "cpu" line of /proc/stat), or zeros where that is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sameHost reports why two host blocks are not comparable, or "".
func sameHost(a, b host) string {
	switch {
	case a.Cores != b.Cores:
		return fmt.Sprintf("cores %d vs %d", a.Cores, b.Cores)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.TmpFS != b.TmpFS:
		return fmt.Sprintf("scratch filesystem %s vs %s", a.TmpFS, b.TmpFS)
	}
	return ""
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, for every metric two reports share, the old and
// new values and the relative change. Reports from different hosts or of
// different workloads are refused.
func compareReports(w io.Writer, oldPath, newPath string) error {
	a, err := readReport(oldPath)
	if err != nil {
		return err
	}
	b, err := readReport(newPath)
	if err != nil {
		return err
	}
	if why := sameHost(a.Host, b.Host); why != "" {
		return fmt.Errorf("refusing a comparison across hosts: %s", why)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare %s/%gs with %s/%gs", a.Workload, a.Seconds, b.Workload, b.Seconds)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		o, nv := a.Result.Metrics[n], b.Result.Metrics[n]
		rel := "n/a"
		if o.Value != 0 {
			rel = fmt.Sprintf("%+.2f%%", 100*(nv.Value-o.Value)/o.Value)
		}
		fmt.Fprintf(w, "%-48s %14.6g %14.6g %-6s %s\n", n, o.Value, nv.Value, o.Unit, rel)
	}
	return nil
}
