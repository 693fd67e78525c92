package workload

import (
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/nested"
	"repro/internal/sched"
	"repro/internal/spdag"
)

// faninVertices is the exact vertex count of one Fanin(n) Run: the
// root/final pair plus two per Async, 2(n−1) Asyncs.
func faninVertices(n uint64) int64 { return int64(2 * (2*n - 1)) }

// The vertex count is sharded per worker (sched.ShardVertices) and
// summed on read; these tests pin that the sum stays exact at
// quiescence under every way the shards can be filled.

func TestVertexCountExactBothPolicies(t *testing.T) {
	const n = 1 << 12
	for _, p := range []sched.Policy{sched.ChaseLev, sched.PrivateDeques} {
		t.Run(p.String(), func(t *testing.T) {
			rt := nested.New(nested.Config{Workers: 4, Policy: p, Seed: 3})
			defer rt.Close()
			for i := 0; i < 5; i++ {
				v0 := rt.Dag().VertexCount()
				res := Fanin(rt, n)
				if res.Vertices != faninVertices(n) {
					t.Fatalf("run %d: Result.Vertices = %d, want %d", i, res.Vertices, faninVertices(n))
				}
				if d := rt.Dag().VertexCount() - v0; d != faninVertices(n) {
					t.Fatalf("run %d: VertexCount delta = %d, want %d", i, d, faninVertices(n))
				}
			}
		})
	}
}

func TestVertexCountConcurrentRuns(t *testing.T) {
	const n, runs = 1 << 10, 8
	rt := nested.New(nested.Config{Workers: 4, Seed: 5})
	defer rt.Close()
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Fanin(rt, n)
		}()
	}
	wg.Wait()
	if got, want := rt.Dag().VertexCount(), runs*faninVertices(n); got != want {
		t.Fatalf("VertexCount after %d concurrent Runs = %d, want %d", runs, got, want)
	}
}

func TestVertexCountWithRecorder(t *testing.T) {
	const n = 1 << 9
	for _, p := range []sched.Policy{sched.ChaseLev, sched.PrivateDeques} {
		t.Run(p.String(), func(t *testing.T) {
			rec := spdag.NewMemRecorder()
			rt := nested.New(nested.Config{Workers: 4, Policy: p, Seed: 7,
				Algorithm: counter.Dynamic{Threshold: 4}, Recorder: rec})
			defer rt.Close()
			res := Fanin(rt, n)
			if res.Vertices != faninVertices(n) {
				t.Fatalf("Result.Vertices = %d, want %d", res.Vertices, faninVertices(n))
			}
			if seen, _ := rec.Counts(); int64(seen) != rt.Dag().VertexCount() {
				t.Fatalf("recorder saw %d vertices, VertexCount = %d", seen, rt.Dag().VertexCount())
			}
		})
	}
}
