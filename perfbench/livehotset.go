package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/live"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
	"batsched/internal/workload"
)

// live-hotset: every durable layer. A 1-shard K2 controller with
// heap-file storage (background flusher) runs Experiment 2's Pattern2,
// r(B:5) -> w(F1:1) -> w(F2:1): B is one of hotReadOnly read-only
// partitions whose heap is larger than the buffer pool, F1 and F2 two of
// hotHots hot partitions that together still fit in the pool at the end
// of a round. Each round commits a fixed number of transactions on
// freshly built state, because every committed write appends an effect
// tuple and the hot partitions grow as the round goes; a longer run
// makes more rounds, not bigger ones.
//
// The end-to-end numbers come from a closed loop of hotClients callers
// without a WAL. Traced runs add the open loop with the WAL (fsync on
// admission and commit): Poisson arrivals at hotOpenRate, each calling
// Run on its own goroutine at its due time, latency timed from the due
// time, reported as the wal.*, bench.open_* and bench.gen_* metrics. On
// a shared VM, fsync latency moves by 2× between seconds: with the WAL
// on, the closed loop's p99 spread from run to run by up to 56% and the
// open loop's by up to 360%, beyond any bound a regression gate can hold;
// without it the closed loop's p99 stayed within ±6%.
const (
	hotReadOnly   = 8
	hotHots       = 8
	hotPoolFrames = 512  // 4 MiB of 8 KiB pages
	hotBPages     = 128  // pages per read-only partition: 1 MiB; all 8 are twice the pool
	hotLoadTuple  = 1000 // bytes per preloaded tuple in a read-only partition
	hotEffect     = 64   // bytes per committed write effect
	hotClients    = 2    // closed-loop callers
	hotPerSecond  = 4000 // closed-loop transactions per second of -seconds, up to a round
	hotRoundSecs  = 5    // seconds of -seconds per closed-loop round: 20 000 transactions
	hotOpenRate   = 1200 // open-loop arrivals per second: about half the closed-loop capacity
	hotWarmup     = 64   // transactions run during set-up, before timing
	hotFlushEvery = 25 * time.Millisecond
	hotSlices     = 10 // slices per round the latency and throughput medians are taken over
)

// hotRounds is how many closed-loop rounds a run of seconds makes.
func hotRounds(seconds float64) int {
	return max(1, int(seconds/hotRoundSecs))
}

// hotClosed gathers the closed-loop rounds' end-to-end figures.
type hotClosed struct {
	setupS          float64
	rates, p50, p99 []float64 // per slice, over every round
	walls           []float64 // per round
	rss             float64
	samples         int
}

// hotState is one built live-hotset: scratch directory, store, and a
// WAL-backed controller that has already run the warm-up.
type hotState struct {
	dir       string
	st        *storage.Store
	ctl       *live.Controller
	loadKeys  []map[storage.EffectKey]bool // per read-only partition
	committed []*txn.T                     // warm-up commits
}

func (s *hotState) close() {
	s.ctl.Close()
	s.st.Close()
	os.RemoveAll(s.dir)
}

// loaderID names the preloaded tuples as effects of transactions with
// negative ids, which no workload transaction has.
func loaderID(part, i int) txn.ID { return txn.ID(-(part*1_000_000 + i + 1)) }

// buildHotset builds the state; withWAL attaches a dependency log.
func buildHotset(cfg config, col *collector, withWAL bool) (*hotState, error) {
	dir, err := cfg.scratch("hotset")
	if err != nil {
		return nil, err
	}
	s := &hotState{dir: dir}
	s.st, err = storage.Open(filepath.Join(dir, "heap"), hotReadOnly+hotHots,
		storage.WithPoolFrames(hotPoolFrames), storage.WithEffectBytes(hotEffect),
		storage.WithBackgroundFlush(hotFlushEvery))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fail := func(err error) (*hotState, error) {
		s.st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	for p := 0; p < hotReadOnly; p++ {
		keys := map[storage.EffectKey]bool{}
		for i := 0; s.st.NumPages(txn.PartitionID(p)) < hotBPages || i == 0; i++ {
			id := loaderID(p, i)
			if _, err := s.st.Insert(txn.PartitionID(p), storage.EncodeEffect(id, 0, txn.PartitionID(p), hotLoadTuple)); err != nil {
				return fail(err)
			}
			keys[storage.EffectKey{Txn: id}] = true
		}
		s.loadKeys = append(s.loadKeys, keys)
	}
	if err := s.st.Flush(); err != nil {
		return fail(err)
	}
	opts := []live.Option{live.WithStorage(s.st), live.WithRetryDelay(time.Millisecond)}
	if withWAL {
		opts = append(opts, live.WithWAL(filepath.Join(dir, "wal")))
	}
	if col != nil {
		opts = append(opts, live.WithObserver(col))
	}
	s.ctl = live.New(sched.KWTPGFactory(2), liveCosts, opts...)
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: hotReadOnly, NumHots: hotHots})
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var id txn.ID
	d := newRunner(s.ctl, false, 1)
	var mu sync.Mutex
	d.onDone = func(t *txn.T, err error) {
		if err == nil {
			mu.Lock()
			s.committed = append(s.committed, t)
			mu.Unlock()
		}
	}
	d.closedLoop(func() *txn.T { id++; return gen.Next(id, rng) }, 1, hotWarmup, 0, 0)
	if err := d.firstErr(); err != nil {
		s.close()
		return nil, fmt.Errorf("live-hotset warm-up: %w", err)
	}
	return s, nil
}

// arrival is one open-loop arrival: a transaction and when it is due.
type arrival struct {
	t   *txn.T
	due int64 // ns after the run's epoch
}

// poissonArrivals draws the n Pattern2 arrivals of a Poisson process
// over [0, seconds), conditioned on the count: their due times are n
// sorted uniform draws. Fixing the count keeps the offered rate exactly
// n/seconds on every seed.
func poissonArrivals(seed int64, n int, seconds float64, firstID txn.ID) []arrival {
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: hotReadOnly, NumHots: hotHots})
	rng := rand.New(rand.NewSource(seed))
	dues := make([]int64, n)
	for i := range dues {
		dues[i] = int64(rng.Float64() * seconds * 1e9)
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{t: gen.Next(firstID+txn.ID(i), rng), due: dues[i]}
	}
	return out
}

func runLiveHotset(cfg config, traced bool) (*outcome, error) {
	o := newOutcome()
	var c hotClosed
	rounds := hotRounds(cfg.seconds)
	for r := 0; r < rounds; r++ {
		if err := hotsetPhase(cfg, o, traced, false, r, &c); err != nil {
			return nil, err
		}
	}
	// Every round does the same work and grows the same way, so their
	// slices are pooled: the medians run over slices×rounds of them.
	o.e2e.set("setup_s", "s", c.setupS)
	o.e2e.set("throughput_txn_s", "1/s", median(c.rates))
	o.e2e.set("latency_p50_us", "us", median(c.p50))
	o.e2e.set("latency_p99_us", "us", median(c.p99))
	o.e2e.set("wall_s", "s", median(c.walls))
	o.e2e.set("peak_rss_mb", "MB", c.rss)
	o.info["rounds"] = rounds
	o.info["round_walls_s"] = c.walls
	o.info["throughput_txn_s_slices"] = c.rates
	o.info["latency_p50_us_slices"] = c.p50
	o.info["latency_p99_us_slices"] = c.p99
	o.info["latency_samples"] = c.samples
	o.info["latency_sample_every"] = 1
	if traced {
		if err := hotsetPhase(cfg, o, false, true, 0, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// hotsetPhase builds a live-hotset state and drives it: one round of
// the closed loop without a WAL, which adds to the end-to-end figures in
// c (and, traced, sets the live, sched and storage metrics from the
// first round), or the open loop with the WAL, which sets the wal.*,
// bench.open_* and bench.gen_* metrics. Set-up is timed on the first
// round and on the open loop.
func hotsetPhase(cfg config, o *outcome, traced, open bool, round int, c *hotClosed) error {
	var col *collector
	if traced || open {
		col = newCollector(1)
	}
	build := func() (*hotState, error) { return buildHotset(cfg, col, open) }
	var s *hotState
	var setupS float64
	var err error
	if round == 0 {
		s, setupS, err = timeSetup(build, (*hotState).close)
	} else {
		s, err = build()
	}
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.dir)
	phase := fmt.Sprintf("closed.round%d.", round+1)
	n := int(hotPerSecond * min(cfg.seconds, hotRoundSecs))
	if open {
		phase = "open."
		n = int(hotOpenRate * cfg.seconds)
	}
	// The closed loop runs the same transactions in the same order and
	// ignores the due times. Each round draws its own.
	arrivals := poissonArrivals(cfg.seed+int64(round)<<32, n, cfg.seconds, hotWarmup+1)

	d := newRunner(s.ctl, traced, 1)
	var mu sync.Mutex
	var committed []*txn.T
	d.onDone = func(t *txn.T, err error) {
		if err == nil {
			mu.Lock()
			committed = append(committed, t)
			mu.Unlock()
		}
	}
	before := s.ctl.Stats()
	walBefore, _ := s.ctl.WALStats()
	poolBefore := s.st.Stats()
	if col != nil {
		col.on.Store(true)
	}
	var late []float64
	var backlog int64
	d.epoch = time.Now()
	if open {
		late = make([]float64, n)
		for i, a := range arrivals {
			if a.due >= int64(len(d.marks))*int64(cfg.seconds*1e9)/hotSlices {
				d.mark()
			}
			if wait := a.due - d.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			late[i] = us(d.now() - a.due)
			d.start(a.t, a.due, nil)
		}
		backlog = int64(n) - d.ok.Load() - d.failed.Load()
		d.mark()
		d.wait()
	} else {
		i := 0
		d.closedLoop(func() *txn.T { i++; return arrivals[i-1].t }, hotClients, n, 0, hotSlices)
	}
	wall := float64(d.ends.Load()) / 1e9
	rss := peakRSSMB()
	if col != nil {
		col.on.Store(false)
	}
	gates := len(o.gates)
	after := checkController(o, d, before)
	walAfter, _ := s.ctl.WALStats()
	if err := s.st.Flush(); err != nil {
		o.check("storage_flush", false, "Flush after drain: %v", err)
	}
	poolAfter := s.st.Stats()
	commits := after.Committed - before.Committed
	o.info[phase+"transactions"] = n
	o.info[phase+"sizes"] = map[string]any{
		"page_bytes":             s.st.PageSize(),
		"pool_frames":            hotPoolFrames,
		"pool_bytes":             hotPoolFrames * s.st.PageSize(),
		"read_only_partitions":   hotReadOnly,
		"read_only_heap_pages":   s.st.NumPages(0),
		"hot_partitions":         hotHots,
		"hot_heap_pages_at_end":  hotPages(s.st),
		"effect_bytes":           hotEffect,
		"preloaded_tuple_bytes":  hotLoadTuple,
		"background_flush_every": hotFlushEvery.String(),
	}

	var measuredWrites uint64
	for _, t := range committed {
		for _, st := range t.Steps {
			if st.Mode == txn.Write {
				measuredWrites++
			}
		}
	}
	all := append(append([]*txn.T(nil), s.committed...), committed...)
	heapWhy, heapBytes, liveBytes := checkHeap(s, all)
	o.check("heap_matches_committed_set", heapWhy == "", "%s", heapWhy)

	// WAL gate: after Close, scanning and replaying the log yields
	// exactly the committed set.
	s.ctl.Close()
	if open {
		walOK, walWhy := checkWAL(filepath.Join(s.dir, "wal"), all)
		o.check("wal_replay_matches_committed_set", walOK, "%s", walWhy)
	}
	if err := s.st.Close(); err != nil {
		o.check("storage_close", false, "Close: %v", err)
	}
	for i := gates; i < len(o.gates); i++ {
		o.gates[i].Name = phase + o.gates[i].Name
	}

	if open {
		// The generator fell behind when its last arrival went out more
		// than 1% of the schedule late: the offered rate was not applied.
		lastLate := late[n-1]
		fellBehind := lastLate > 0.01*float64(arrivals[n-1].due)/1e3
		if fellBehind {
			fmt.Fprintf(os.Stderr, "perfbench: live-hotset generator fell behind the offered %d/s: last arrival %.0f µs late\n", hotOpenRate, lastLate)
		}
		lat := newOutcome()
		setLatency(lat, d)
		for k, v := range lat.info {
			o.info[phase+k] = v
		}
		m := o.layer
		m.set("bench.open_latency_p50_us", "us", lat.e2e["latency_p50_us"].Value)
		m.set("bench.open_latency_p99_us", "us", lat.e2e["latency_p99_us"].Value)
		m.set("bench.open_throughput_txn_s", "1/s", float64(commits)/wall)
		m.set("bench.gen_late_us_p50", "us", quantile(late, 0.50))
		m.set("bench.gen_late_us_p99", "us", quantile(late, 0.99))
		m.set("bench.backlog_end", "count", float64(backlog))
		behind := 0.0
		if fellBehind {
			behind = 1
		}
		m.set("bench.fell_behind", "count", behind)
		o.info["open.offered_rate_per_s"] = hotOpenRate

		syncs := walAfter.Syncs - walBefore.Syncs
		m.set("wal.sync_us_p50", "us", quantile(col.walSync, 0.50))
		m.set("wal.sync_us_p99", "us", quantile(col.walSync, 0.99))
		m.set("wal.records_per_sync", "count", perCommit(walAfter.SyncedRecords-walBefore.SyncedRecords, syncs))
		m.set("wal.syncs_per_commit", "count", perCommit(syncs, commits))
		return nil
	}

	if round == 0 {
		c.setupS = setupS
	}
	c.rates = append(c.rates, d.sliceRates()...)
	p50, p99 := d.sliceLatencies()
	c.p50 = append(c.p50, p50...)
	c.p99 = append(c.p99, p99...)
	c.walls = append(c.walls, wall)
	c.rss = rss
	c.samples += d.recorded()
	if !traced || round > 0 {
		return nil
	}
	if err := setLiveTraced(cfg, "live-hotset", o, d, col, after.Retries-before.Retries, commits, wall); err != nil {
		return err
	}
	m := o.layer
	hits, misses := poolAfter.Hits-poolBefore.Hits, poolAfter.Misses-poolBefore.Misses
	m.set("storage.hit_rate", "ratio", perCommit(hits, hits+misses))
	m.set("storage.misses_per_commit", "count", perCommit(misses, commits))
	m.set("storage.read_bytes_per_commit", "B", perCommit(poolAfter.BytesRead-poolBefore.BytesRead, commits))
	m.set("storage.write_bytes_per_user_byte", "ratio",
		perCommit(poolAfter.BytesWritten-poolBefore.BytesWritten, measuredWrites*hotEffect))
	m.set("storage.evictions_per_commit", "count", perCommit(poolAfter.Evictions-poolBefore.Evictions, commits))
	m.set("storage.flushes", "count", float64(poolAfter.Flushes-poolBefore.Flushes))
	m.set("storage.overflows", "count", float64(poolAfter.Overflows-poolBefore.Overflows))
	m.set("storage.space_per_live_byte", "ratio", heapBytes/liveBytes)
	return nil
}

// checkHeap is the storage gate: every partition holds exactly the
// effects of the committed set — one tuple per write step — and the
// read-only partitions exactly their preloaded tuples. It returns why
// not ("" when they do), and the heap files' bytes against the live
// tuple bytes they hold.
func checkHeap(s *hotState, committed []*txn.T) (why string, heapBytes, liveBytes float64) {
	want := make([]map[storage.EffectKey]bool, hotReadOnly+hotHots)
	for p := range want {
		want[p] = map[storage.EffectKey]bool{}
		if p < hotReadOnly {
			want[p] = s.loadKeys[p]
		}
	}
	for _, t := range committed {
		for step, st := range t.Steps {
			if st.Mode == txn.Write {
				want[st.Part][storage.EffectKey{Txn: t.ID, Step: step}] = true
			}
		}
	}
	for p := range want {
		got, err := s.st.Keys(txn.PartitionID(p))
		if err != nil {
			return fmt.Sprintf("Keys(P%d): %v", p, err), 0, 0
		}
		if !sameKeys(got, want[p]) {
			return fmt.Sprintf("P%d holds %d effect keys, the committed set implies %d", p, len(got), len(want[p])), 0, 0
		}
		heapBytes += float64(s.st.NumPages(txn.PartitionID(p))) * float64(s.st.PageSize())
		size := hotEffect
		if p < hotReadOnly {
			size = hotLoadTuple
		}
		liveBytes += float64(len(got) * size)
	}
	return "", heapBytes, liveBytes
}

func hotPages(st *storage.Store) []uint32 {
	var out []uint32
	for p := hotReadOnly; p < hotReadOnly+hotHots; p++ {
		out = append(out, st.NumPages(txn.PartitionID(p)))
	}
	return out
}

func sameKeys(a, b map[storage.EffectKey]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkWAL scans and replays the closed log and compares its committed
// set with the transactions whose Run succeeded.
func checkWAL(dir string, committed []*txn.T) (bool, string) {
	scans, err := wal.Scan(dir)
	if err != nil {
		return false, fmt.Sprintf("wal.Scan: %v", err)
	}
	rec, err := wal.Replay(scans, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return false, fmt.Sprintf("wal.Replay: %v", err)
	}
	got := append([]txn.ID(nil), rec.Committed...)
	want := make([]txn.ID, len(committed))
	for i, t := range committed {
		want[i] = t.ID
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		return false, fmt.Sprintf("replay found %d committed, %d Run calls succeeded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return false, fmt.Sprintf("replay committed set differs first at %v (want %v)", got[i], want[i])
		}
	}
	if len(rec.Incomplete) > 0 || len(rec.Aborted) > 0 {
		return false, fmt.Sprintf("replay found %d incomplete and %d aborted transactions", len(rec.Incomplete), len(rec.Aborted))
	}
	return true, ""
}
