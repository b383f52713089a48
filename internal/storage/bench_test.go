package storage

import (
	"hash/crc32"
	"os"
	"strconv"
	"testing"

	"batsched/internal/txn"
)

// benchFrames reads STORAGE_POOL: the buffer-pool frame count for the
// scan benchmark. The default 64 caches the whole benchmark partition
// (pool-hit path); set it low (e.g. STORAGE_POOL=4) to starve the pool
// and measure the disk-read path — `make bench-storage` records both.
func benchFrames() int {
	if s := os.Getenv("STORAGE_POOL"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 4 {
			return v
		}
	}
	return 64
}

// benchScanStore opens a store whose partition 0 holds scanTuples
// effect tuples, flushed to its heap file.
func benchScanStore(b *testing.B) *Store {
	st, err := Open(b.TempDir(), 1, WithPoolFrames(benchFrames()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for i := 0; i < scanTuples; i++ {
		if _, err := st.Insert(0, EncodeEffect(txn.ID(i+1), 0, 0, 64)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	return st
}

const scanTuples = 4096

// BenchmarkStorageScanCount measures ScanCount, the batched read the
// execution layers drive on a granted read step: every page of the
// partition pinned once through the buffer pool and counted from its
// header. It touches no tuple bytes, so it reports no MB/s.
func BenchmarkStorageScanCount(b *testing.B) {
	st := benchScanStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := st.ScanCount(0)
		if err != nil {
			b.Fatal(err)
		}
		if n != scanTuples {
			b.Fatalf("scan found %d tuples, want %d", n, scanTuples)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*st.Stats().HitRate(), "hit%")
}

// BenchmarkStorageScanTuples measures a full scan through the zero-copy
// iterator that folds a CRC-32C over every tuple it yields. b.SetBytes
// claims only the tuple bytes the checksum reads, not page headers or
// free space, so the MB/s is the rate of bytes actually touched.
func BenchmarkStorageScanTuples(b *testing.B) {
	st := benchScanStore(b)
	table := crc32.MakeTable(crc32.Castagnoli)
	scan := func() (sum uint32, bytes int64) {
		it := st.Scan(0)
		defer it.Close()
		for {
			tup, _, ok := it.Next()
			if !ok {
				break
			}
			sum = crc32.Update(sum, table, tup)
			bytes += int64(len(tup))
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		return sum, bytes
	}
	wantSum, wantBytes := scan()
	b.SetBytes(wantBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum, bytes := scan(); sum != wantSum || bytes != wantBytes {
			b.Fatalf("scan read %d bytes with checksum %#x, want %d and %#x", bytes, sum, wantBytes, wantSum)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*st.Stats().HitRate(), "hit%")
}

// BenchmarkStorageInsert measures the insert path: effect-sized tuples
// appended to one partition through the pool, with the page-allocation
// and dirty write-back costs included via a periodic flush.
func BenchmarkStorageInsert(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, 1, WithPoolFrames(benchFrames()))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Insert(0, EncodeEffect(txn.ID(i+1), 0, 0, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}
