package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/spdag"
)

// TestVertexShardsSurviveRetire checks that a dag's sharded vertex
// count stays exact across elastic spawn → retire → respawn. Each round
// wedges every slot on a blocking root, releases them so every slot
// spawns a tree from its own context, then lets the pool retire back to
// the floor. A retiring worker drains its freelist (DrainFree) but not
// its stats line, so the retired slots' shards must keep their counts.
func TestVertexShardsSurviveRetire(t *testing.T) {
	requireParallelism(t)
	const max, depth = 4, 6
	const perRun = 2 << depth // Make's pair + two per Spawn: 2^(depth+1)
	for _, policy := range []Policy{ChaseLev, PrivateDeques} {
		t.Run(policy.String(), func(t *testing.T) {
			clk := NewManualClock(time.Unix(0, 0))
			s := New(1, WithSeed(11), WithPolicy(policy), WithMaxWorkers(max),
				WithRetireAfter(5*time.Millisecond), WithClock(clk))
			d := spdag.New(counter.FetchAdd{}, spdag.WithScheduler(s.Submit))
			s.ShardVertices(d)
			s.Start()
			defer s.Shutdown()

			var noops int64
			for round := 1; round <= 2; round++ {
				release := make(chan struct{})
				var blocked, leaves atomic.Int64
				var wg sync.WaitGroup
				for i := 0; i < max; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s.Run(d, func(self *spdag.Vertex) {
							blocked.Add(1)
							<-release
							spawnTree(self, depth, &leaves)
						})
					}()
					time.Sleep(time.Millisecond)
				}
				// Growth needs sustained injector backlog: keep submitting
				// one-vertex no-ops (counted on the dag-level counter) until
				// every slot holds a blocker.
				waitCond(t, 10*time.Second, "every slot wedged", func() bool {
					if s.NumWorkers() == max && blocked.Load() == max {
						return true
					}
					v := d.NewVertex(nil, nil, 0)
					v.TrySchedule()
					noops++
					return false
				})
				close(release)
				wg.Wait()
				waitCond(t, 10*time.Second, "pool retired to the floor", func() bool {
					clk.Advance(5 * time.Millisecond)
					return s.NumWorkers() == 1 && s.RetiredWorkers() == s.SpawnedWorkers()
				})

				if got, want := d.VertexCount(), int64(round*max*perRun)+noops; got != want {
					t.Fatalf("round %d: VertexCount = %d, want %d", round, got, want)
				}
				for _, w := range s.workers {
					if w.stats.vertices.Load() == 0 {
						t.Fatalf("round %d: slot %d's shard is empty after it spawned a tree", round, w.id)
					}
				}
			}
			if got := s.SpawnedWorkers(); got != 2*(max-1) {
				t.Fatalf("SpawnedWorkers = %d, want %d (every slot respawned once)", got, 2*(max-1))
			}
		})
	}
}
