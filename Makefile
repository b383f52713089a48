# Tier-1 check (ROADMAP.md) plus static analysis and the race detector
# on the concurrency-sensitive packages.

GO ?= go

.PHONY: build test bench bench-all bench-smoke bench-harness bench-epoch bench-live bench-storage bench-pr10 bench-storage-smoke perfbench-smoke epoch-smoke chaos chaos-nodes chaos-restart verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The PR3 performance-tracking set: the Table 1 macro benchmark plus the
# WTPG/estimate micro-benchmarks that gate the allocation-free engine.
PR3_BENCH := BenchmarkTable1SingleRun|BenchmarkEstimateE|BenchmarkESmall|BenchmarkELarge
PR3_BENCH := $(PR3_BENCH)|BenchmarkCriticalPath|BenchmarkCriticalPathStar|BenchmarkGraphChurn
PR3_BENCH := $(PR3_BENCH)|BenchmarkWouldCycleFromStar|BenchmarkCloneStar
PR3_PKGS  := . ./internal/core/wtpg/ ./internal/core/estimate/

# bench reruns the tracking set (3 samples each) into
# bench/current_pr3.txt — plain `go test -bench` text, so
# `benchstat bench/baseline_pr3.txt bench/current_pr3.txt` works on the
# two files directly — and regenerates the committed BENCH_PR3.json
# before/after summary from baseline vs current.
bench:
	$(GO) test -run '^$$' -bench '^($(PR3_BENCH))$$' -benchmem -count 3 $(PR3_PKGS) \
		| tee bench/current_pr3.txt
	$(GO) run ./tools/benchjson -old bench/baseline_pr3.txt -new bench/current_pr3.txt \
		-note "baseline = pre-slot-engine (map-based WTPG, clone-based E)" > BENCH_PR3.json

# The PR5 set tracks the parallel experiment harness: the smoke sweep at
# -parallel 1 vs NumCPU workers, and the event-queue churn benchmark
# gating the free-list's zero-alloc steady state.
PR5_BENCH := BenchmarkSweepParallel1|BenchmarkSweepParallelN|BenchmarkQueueChurn
PR5_PKGS  := ./internal/experiments/ ./internal/event/

# bench-harness reruns the PR5 set (3 samples each) into
# bench/current_pr5.txt and regenerates the committed BENCH_PR5.json
# from baseline (pre-free-list event queue) vs current.
bench-harness:
	$(GO) test -run '^$$' -bench '^($(PR5_BENCH))$$' -benchmem -count 3 $(PR5_PKGS) \
		| tee bench/current_pr5.txt
	$(GO) run ./tools/benchjson -old bench/baseline_pr5.txt -new bench/current_pr5.txt \
		-note "baseline = pre-free-list event queue, same parallel harness; SweepParallel1 vs SweepParallelN within one column is the scaling measurement, N = NumCPU of the recording host ($(shell nproc) when last regenerated — on a 1-core host the two are equal by construction; re-run on a multicore host to see the fan-out)" > BENCH_PR5.json

# bench-epoch regenerates the committed BENCH_PR6.json: the EPOCH
# batch-window sweep — makespan and p99 latency vs window size (the
# per-arrival CHAIN baseline plus five nonzero windows) over a fixed
# Pattern1 stream. The document is a pure function of the sweep (no
# timestamps, no host data), so an unchanged tree regenerates
# byte-identical output at any -parallel level.
bench-epoch:
	$(GO) run ./cmd/batbench -epoch -q -json BENCH_PR6.json
	@echo wrote BENCH_PR6.json

# epoch-smoke drives the epoch path end to end — registry lookup, batch
# admission, window flushes, the sweep harness and its JSON export —
# on a tiny sweep, so verify catches breakage without the cost of the
# committed document's full run.
epoch-smoke:
	$(GO) run ./cmd/batbench -epoch -quick -q -maxtxns 20 -windows 0,500,2000 -json /dev/null

# The PR8 set tracks the sharded live controller: open-loop throughput
# through the real-goroutine hot path at GOMAXPROCS 1/2/4/8.
# bench-live records the committed BENCH_PR8.json as a benchstat-style
# old/new comparison — old = LIVE_SHARDS=1 (the single global mutex),
# new = the default sharded configuration (16 shards) — from the same
# BenchmarkLiveThroughput binary.
PR8_BENCH := BenchmarkLiveThroughput
PR8_PKGS  := ./internal/live/

bench-live:
	LIVE_SHARDS=1 $(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchmem -count 3 $(PR8_PKGS) \
		| tee bench/baseline_pr8.txt
	$(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchmem -count 3 $(PR8_PKGS) \
		| tee bench/current_pr8.txt
	$(GO) run ./tools/benchjson -old bench/baseline_pr8.txt -new bench/current_pr8.txt \
		-note "old = single-mutex controller (LIVE_SHARDS=1), new = 16-shard hot path; /p=N pins GOMAXPROCS=N — on a 1-core recording host ($(shell nproc) cores when last regenerated) the p2/p4/p8 columns cannot show multicore scaling, re-run on a multicore host for the GOMAXPROCS curve" > BENCH_PR8.json
	@echo wrote BENCH_PR8.json

# The PR9 set tracks the heap-file storage engine (docs/STORAGE.md):
# full-partition scan and insert throughput through the buffer pool
# (real MB/s via b.SetBytes) and the live controller with real page I/O
# attached to every step. bench-storage records the committed
# BENCH_PR9.json — old = pool starved to 4 frames (the disk-read path)
# and the storage-free live hot path, new = the default pool (cached
# scans) and the heap-backed controller — so the document shows both
# what the pool buys on scans and what real page I/O costs the
# controller.
PR9_BENCH := BenchmarkStorageScanCount|BenchmarkStorageScanTuples|BenchmarkStorageInsert
PR9_PKGS  := ./internal/storage/

bench-storage:
	STORAGE_POOL=4 $(GO) test -run '^$$' -bench '^($(PR9_BENCH))$$' -benchmem -count 3 $(PR9_PKGS) \
		| tee bench/baseline_pr9.txt
	LIVE_SHARDS=1 $(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchmem -count 3 $(PR8_PKGS) \
		| tee -a bench/baseline_pr9.txt
	$(GO) test -run '^$$' -bench '^($(PR9_BENCH))$$' -benchmem -count 3 $(PR9_PKGS) \
		| tee bench/current_pr9.txt
	LIVE_SHARDS=1 LIVE_STORAGE=1 $(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchmem -count 3 $(PR8_PKGS) \
		| tee -a bench/current_pr9.txt
	$(GO) run ./tools/benchjson -old bench/baseline_pr9.txt -new bench/current_pr9.txt \
		-note "StorageScan/Insert: old = STORAGE_POOL=4 (pool starved, disk-read path), new = default 64-frame pool; LiveThroughput: old = single-mutex controller without storage, new = the same controller with LIVE_STORAGE=1 heap files on every step — the txn/s drop is the real page-I/O cost; recorded on a $(shell nproc)-core host" > BENCH_PR9.json
	@echo wrote BENCH_PR9.json

# The PR10 set re-measures the storage-backed live hot path after the
# striped-pool / zero-copy-scan / background-flusher rework. The two
# baseline files are committed artifacts recorded with the PR 9 engine
# on this host — bench/baseline_pr10.txt (LIVE_STORAGE=1 live + storage
# benches) and bench/baseline_pr10_off.txt (the storage-free ceiling) —
# and cannot be regenerated from the current tree; bench-pr10 re-records
# only the current engine and rebuilds BENCH_PR10.json. recovered_pct =
# how much of the old→ceiling throughput gap (the PR 9 storage tax) the
# new engine claws back.
bench-pr10:
	LIVE_SHARDS=1 LIVE_STORAGE=1 $(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchmem -count 3 $(PR8_PKGS) \
		| tee bench/current_pr10.txt
	$(GO) test -run '^$$' -bench '^($(PR9_BENCH))$$' -benchmem -count 3 $(PR9_PKGS) \
		| tee -a bench/current_pr10.txt
	$(GO) run ./tools/benchjson -old bench/baseline_pr10.txt -new bench/current_pr10.txt \
		-ceiling bench/baseline_pr10_off.txt \
		-note "old = PR 9 storage engine with LIVE_STORAGE=1 (single-mutex pool, per-record-copy scans, synchronous commit flush), new = striped pool + zero-copy batched scans + background flusher, ceiling = same controller with storage off; all three recorded on the same $(shell nproc)-core host" > BENCH_PR10.json
	@echo wrote BENCH_PR10.json

# bench-storage-smoke executes the storage benchmarks and the
# storage-backed live throughput benchmark exactly once, so verify
# catches a broken storage hot path (including the LIVE_STORAGE wiring
# and the background flusher the bench enables) without a measurement
# run.
bench-storage-smoke:
	$(GO) test -run '^$$' -bench '^($(PR9_BENCH))$$' -benchtime 1x $(PR9_PKGS)
	LIVE_STORAGE=1 $(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchtime 1x $(PR8_PKGS)

# bench-all is the old kitchen-sink run over every benchmark in the repo.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke executes each tracked benchmark exactly once so verify
# catches benchmarks that no longer compile or crash, without the cost
# of a measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench '^($(PR3_BENCH))$$' -benchtime 1x $(PR3_PKGS)
	$(GO) test -run '^$$' -bench '^($(PR5_BENCH))$$' -benchtime 1x $(PR5_PKGS)
	$(GO) test -run '^$$' -bench '^($(PR8_BENCH))$$' -benchtime 1x $(PR8_PKGS)
	$(GO) test -run '^$$' -bench '^($(PR9_BENCH))$$' -benchtime 1x $(PR9_PKGS)

# perfbench-smoke runs the repository benchmark's own test (its own Go
# module under perfbench/, see perfbench/NOTES.md): every workload at a
# tiny size, checking that each metric BENCHMARK.json names is reported
# and every correctness gate passes.
perfbench-smoke:
	$(GO) -C perfbench test ./...

# chaos runs the fault-injection suites (docs/ROBUSTNESS.md) under the
# race detector: the simulator's 100-seed × scheduler matrix (including
# the 100-seed epoch-window run, TestChaosEpoch), the live controller's
# goroutine chaos (including the epoch pipeline, TestEpochChaosLive),
# and the abort/watchdog regression tests. Seeds are fixed — a red
# chaos run reproduces.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|TestAbort|TestWatchdog|TestFaults|StorageDifferential' \
		./internal/sim/ ./internal/live/ ./internal/fault/ ./internal/core/sched/

# chaos-nodes runs the node-crash recovery battery (docs/ROBUSTNESS.md
# §8) under the race detector: the crashed-node chaos matrix, the
# differential (subset-of-clean-run) test, the seeded 8-node acceptance
# scenario, the live CrashNode tests, and the model checker's
# crash-at-every-prefix exploration.
chaos-nodes:
	$(GO) test -race -count=1 -run 'NodeCrash|CrashNode|CrashedCommits|CrashAnywhere|ErrNodeCrashed|EpisodesNotTicks|Placement|DataNodeKill' \
		./internal/sim/ ./internal/live/ ./internal/fault/ ./internal/machine/ ./internal/modelcheck/

# chaos-restart runs the kill-and-restart battery (docs/ROBUSTNESS.md
# §9) under the race detector: WAL encode/decode + corruption fuzz +
# group commit, the simulator's 100-seed × scheduler kill matrix with
# replay-equivalence checks, the live controller's crash/recover round
# trip, the KillAt determinism test, and the recovery model checker.
# Every failure message carries a one-line repro (scheduler, seed, kill
# point, flush fraction).
chaos-restart:
	$(GO) test -race -count=1 -run 'Restart|KillRestart|KillAt|Recover|WAL|Replay|Torn|GroupCommit|Corruption|RoundTrip' \
		./internal/wal/ ./internal/sim/ ./internal/live/ ./internal/fault/ ./internal/modelcheck/ ./internal/storage/

verify: build test chaos chaos-nodes chaos-restart bench-smoke bench-storage-smoke perfbench-smoke epoch-smoke
	$(GO) vet ./...
	$(GO) test -race ./internal/live/... ./internal/obs/... ./internal/core/sched/ ./internal/core/wtpg/ ./internal/experiments/ ./internal/event/ ./internal/wal/ ./internal/storage/
	$(GO) test -race -count=1 -run 'Stripe|ZeroCopy|FlusherLag|PoolConcurrent' ./internal/storage/
	$(GO) test -race -count=1 -run 'Epoch' ./internal/core/sched/ ./internal/sim/
	$(GO) test -tags wtpgshadow -count=1 ./internal/core/... ./internal/sim/
