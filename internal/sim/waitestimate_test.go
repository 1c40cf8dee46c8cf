package sim

import (
	"math/rand"
	"sort"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/simtime"
	"greensched/internal/workload"
)

// This file pins the wait estimate: the min-heap + cached-first-free
// estimate must return bit-identical floats to the seed kernel's
// sort-per-queued-task loop (sortWaitEstimate, kept here as the test
// oracle) on arbitrary SED states, and the hot path must not allocate
// — the sort version cost O(q·s·log s) comparisons and one fresh
// slice per probe, which dominated the 10k-task benchmark.

// sortWaitEstimate is the oracle: slot-availability times (running
// tasks' finish times, padded with now for free slots) re-sorted after
// each queued task drains onto the earliest slot.
func sortWaitEstimate(s *sedState, now float64) float64 {
	if s.freeSlots() > 0 && s.qlen() == 0 {
		return 0
	}
	avail := make([]float64, 0, s.slots)
	for _, rt := range s.running {
		avail = append(avail, rt.finish.At.Seconds())
	}
	for len(avail) < s.slots {
		avail = append(avail, now)
	}
	sort.Float64s(avail)
	for _, p := range s.queued() {
		start := avail[0]
		exec := s.node.Spec.TaskSeconds(p.task.Ops)
		avail[0] = start + exec
		sort.Float64s(avail)
	}
	w := avail[0] - now
	if w < 0 {
		w = 0
	}
	return w
}

// waitSED builds a SED with nrun running tasks (finish times drawn
// from rng) and nq queued tasks, at virtual time now.
func waitSED(t *testing.T, eng *simtime.Engine, rng *rand.Rand, slots, nrun, nq int, now float64) *sedState {
	t.Helper()
	spec := smallPlatform().Nodes[0]
	sed := &sedState{
		node:    cluster.NewNode(spec, 0, power.NewWattmeter(0, 1)),
		est:     power.NewEstimator(8),
		slots:   slots,
		running: make(map[int]*runningTask),
	}
	for i := 0; i < nrun; i++ {
		if err := sed.node.StartTask(now); err != nil {
			t.Fatal(err)
		}
		rt := &runningTask{start: now}
		rt.finish = eng.At(simtime.Time(now+1+rng.Float64()*500), "finish", func(simtime.Time) {})
		sed.running[i] = rt
		sed.bumpWait()
	}
	for i := 0; i < nq; i++ {
		sed.pushQueue(pendingTask{task: workload.Task{ID: 1000 + i, Ops: (1 + rng.Float64()*9) * 1e11}})
	}
	return sed
}

// TestWaitEstimateMatchesLegacy: the heap/cached estimate equals the
// sort oracle bit-for-bit across randomized states, repeated probes
// (cache hits) and interleaved mutations, on shallow and deep backlogs
// and on queues with a dead prefix.
func TestWaitEstimateMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		eng := simtime.NewEngine()
		now := rng.Float64() * 100
		slots := 1 + rng.Intn(8)
		// nrun < slots with a backlog exercises the now-padded branch
		// (a booting/off node's leftover queue); nrun == slots the
		// cached branch.
		nrun := rng.Intn(slots + 1)
		nq := rng.Intn(12)
		sed := waitSED(t, eng, rng, slots, nrun, nq, now)
		for probe := 0; probe < 3; probe++ {
			got := sed.waitEstimate(now)
			want := sortWaitEstimate(sed, now)
			if got != want {
				t.Fatalf("trial %d probe %d: waitEstimate %v != oracle %v (slots=%d run=%d q=%d)",
					trial, probe, got, want, slots, nrun, nq)
			}
			now += rng.Float64() * 10 // later probe, same state: cache path
		}
		// Mutate the queue and probe again: the version bump must
		// invalidate the cache.
		sed.pushQueue(pendingTask{task: workload.Task{ID: 9999, Ops: 3e11}})
		if got, want := sed.waitEstimate(now), sortWaitEstimate(sed, now); got != want {
			t.Fatalf("trial %d after push: %v != %v", trial, got, want)
		}
	}

	// Deep backlogs, and dead prefixes: head dequeues advance qhead
	// (heads < 256 never compact; 300 of 4096 leaves qhead at 300),
	// and 2048 of 4096 compacts the arena back to qhead 0 before the
	// later heads advance it again.
	for _, tc := range []struct{ nq, heads, qhead int }{
		{256, 0, 0}, {256, 100, 100}, {4096, 0, 0}, {4096, 300, 300}, {4096, 2048 + 37, 37},
	} {
		for trial := 0; trial < 4; trial++ {
			eng := simtime.NewEngine()
			now := rng.Float64() * 100
			slots := 1 + rng.Intn(8)
			nrun := rng.Intn(slots + 1)
			sed := waitSED(t, eng, rng, slots, nrun, tc.nq, now)
			for i := 0; i < tc.heads; i++ {
				sed.removeQueued(0)
			}
			if sed.qhead != tc.qhead {
				t.Fatalf("nq=%d heads=%d: qhead %d, want %d", tc.nq, tc.heads, sed.qhead, tc.qhead)
			}
			for probe := 0; probe < 3; probe++ {
				if got, want := sed.waitEstimate(now), sortWaitEstimate(sed, now); got != want {
					t.Fatalf("nq=%d heads=%d trial %d probe %d: waitEstimate %v != oracle %v (slots=%d run=%d qhead=%d)",
						tc.nq, tc.heads, trial, probe, got, want, slots, nrun, sed.qhead)
				}
				now += rng.Float64() * 10
			}
			// A head dequeue and a mid-queue removal must each
			// invalidate the cache.
			sed.removeQueued(0)
			sed.removeQueued(sed.qlen() / 2)
			if got, want := sed.waitEstimate(now), sortWaitEstimate(sed, now); got != want {
				t.Fatalf("nq=%d heads=%d trial %d after removals: %v != %v", tc.nq, tc.heads, trial, got, want)
			}
		}
	}
}

// TestWaitEstimateZeroAlloc: repeated probes — including cache misses
// after mutations — allocate nothing once the scratch heap has grown.
func TestWaitEstimateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := simtime.NewEngine()
	sed := waitSED(t, eng, rng, 4, 4, 10, 0)
	sed.waitEstimate(0) // warm the scratch buffer
	now := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		now += 0.25
		sed.waitEstimate(now) // cache hit
		sed.bumpWait()
		sed.waitEstimate(now) // full heap recompute
	})
	if allocs != 0 {
		t.Fatalf("waitEstimate allocated %.1f times per probe pair, want 0", allocs)
	}
}
