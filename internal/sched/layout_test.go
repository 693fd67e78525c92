package sched

import (
	"testing"
	"unsafe"
)

// Compile-time layout assertions: workerStats must span exactly two
// cache lines — a leading 64-byte shield against the worker's
// scheduling state plus one line holding the four counters — so that
// stat updates on one worker never invalidate another worker's (or its
// own) hot scheduling words. A change to the struct that breaks this
// fails the build of this test file, not just an assertion at run
// time.
var (
	_ [unsafe.Sizeof(workerStats{}) - 128]byte
	_ [128 - unsafe.Sizeof(workerStats{})]byte
)

// shardOffset is the worker-relative offset of the slot's vertex shard,
// and preStatsEnd the first byte past the last worker field laid out
// before the stats block (execStart). Every field other workers read —
// the deque indices thieves load, the private-deque request/transfer
// cells, the state flag, parked and sema that wakers touch — precedes
// it, so a 64-byte gap keeps all of them off the shard's line at any
// alignment of the worker.
const (
	shardOffset = unsafe.Offsetof(worker{}.stats) + unsafe.Offsetof(workerStats{}.vertices)
	preStatsEnd = unsafe.Offsetof(worker{}.execStart) + unsafe.Sizeof(worker{}.execStart)
)

var _ [shardOffset - preStatsEnd - 64]byte

// TestWorkerStatsLayout re-states the compile-time facts as a runtime
// test so the invariant shows up in test listings, and pins the field
// offsets the padding is supposed to produce.
func TestWorkerStatsLayout(t *testing.T) {
	if s := unsafe.Sizeof(workerStats{}); s != 128 {
		t.Fatalf("workerStats size = %d, want 128", s)
	}
	if off := unsafe.Offsetof(workerStats{}.localSteals); off != 64 {
		t.Fatalf("localSteals offset = %d, want 64 (first byte of the stats line)", off)
	}
	if off := unsafe.Offsetof(workerStats{}.remoteSteals); off != 72 {
		t.Fatalf("remoteSteals offset = %d, want 72", off)
	}
	if off := unsafe.Offsetof(workerStats{}.executed); off != 80 {
		t.Fatalf("executed offset = %d, want 80", off)
	}
	if off := unsafe.Offsetof(workerStats{}.vertices); off != 88 {
		t.Fatalf("vertices offset = %d, want 88", off)
	}
}

// TestVertexShardLayout re-states the compile-time gap field by field:
// a worker's vertex shard shares no cache line with any field other
// workers read or write (a 64-byte gap, so it holds at any alignment).
func TestVertexShardLayout(t *testing.T) {
	var z worker
	shared := []struct {
		name      string
		off, size uintptr
	}{
		{"dq", unsafe.Offsetof(z.dq), unsafe.Sizeof(z.dq)},
		{"pd.request", unsafe.Offsetof(z.pd) + unsafe.Offsetof(z.pd.request), unsafe.Sizeof(z.pd.request)},
		{"pd.transfer", unsafe.Offsetof(z.pd) + unsafe.Offsetof(z.pd.transfer), unsafe.Sizeof(z.pd.transfer)},
		{"state", unsafe.Offsetof(z.state), unsafe.Sizeof(z.state)},
		{"parked", unsafe.Offsetof(z.parked), unsafe.Sizeof(z.parked)},
		{"sema", unsafe.Offsetof(z.sema), unsafe.Sizeof(z.sema)},
		{"execStart", unsafe.Offsetof(z.execStart), unsafe.Sizeof(z.execStart)},
	}
	for _, f := range shared {
		if end := f.off + f.size; end > shardOffset || shardOffset-end < 64 {
			t.Errorf("%s ends at offset %d, shard at %d: want a gap of at least 64 bytes", f.name, end, shardOffset)
		}
	}
}
