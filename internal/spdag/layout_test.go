package spdag

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/counter"
)

// headerEnd is the first byte past Dag's read-mostly header (alg,
// schedule, rec), and dagWritten the first field after it that is
// written while vertices are created.
const (
	headerEnd  = unsafe.Offsetof(Dag{}.rec) + unsafe.Sizeof(Dag{}.rec)
	dagWritten = unsafe.Offsetof(Dag{}.ids)
)

// Compile-time layout assertion: at least 64 bytes separate the last
// header byte from the first written field, so the two share no cache
// line whatever the Dag's alignment. Moving a written field into the
// header, or shrinking the shield, fails the build of this file.
var _ [dagWritten - headerEnd - 64]byte

// TestDagLayout re-states the compile-time fact at run time for every
// written field, not just the first.
func TestDagLayout(t *testing.T) {
	var z Dag
	written := map[string]uintptr{
		"ids":      unsafe.Offsetof(z.ids),
		"vertices": unsafe.Offsetof(z.vertices),
		"mu":       unsafe.Offsetof(z.mu),
		"shards":   unsafe.Offsetof(z.shards),
	}
	for name, off := range written {
		if off < headerEnd+64 {
			t.Errorf("%s at offset %d, header ends at %d: want a gap of at least 64 bytes", name, off, headerEnd)
		}
	}
}

// TestShardVerticesRouting checks the count's two paths on one dag: a
// bound context counts on its shard, everything else (Make, a context
// bound to another dag, an unbound context) on the dag-level counter,
// and VertexCount sums both.
func TestShardVerticesRouting(t *testing.T) {
	d, other := New(counter.FetchAdd{}), New(counter.FetchAdd{})
	var shard, otherShard atomic.Int64
	bound, foreign := &ExecContext{}, &ExecContext{}
	d.ShardVertices(bound, &shard)
	other.ShardVertices(foreign, &otherShard)

	spawnUnder := func(ec *ExecContext) {
		root, _ := d.Make()
		root.ctx = ec
		v, w := root.Spawn()
		w.Signal()
		v.Signal()
	}
	spawnUnder(bound)
	spawnUnder(foreign)
	spawnUnder(nil)
	if got := shard.Load(); got != 2 {
		t.Fatalf("bound shard = %d, want 2 (one Spawn)", got)
	}
	if got := otherShard.Load(); got != 0 {
		t.Fatalf("a context bound to another dag counted %d vertices on its shard", got)
	}
	if got := d.vertices.Load(); got != 3*2+2+2 {
		t.Fatalf("dag-level count = %d, want 10 (three Makes, two unsharded Spawns)", got)
	}
	if got := d.VertexCount(); got != 12 {
		t.Fatalf("VertexCount = %d, want 12", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("binding a bound context again did not panic")
		}
	}()
	other.ShardVertices(bound, &otherShard)
}
