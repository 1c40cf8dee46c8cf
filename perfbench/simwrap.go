package main

import (
	"sync"
	"sync/atomic"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// countingPolicy forwards a sched.Policy and counts its Less calls —
// the comparisons one election costs. Every captureStride-th call it
// keeps a copy of the compared vectors for the estvec codec
// measurement, which runs after the traced phase, off the request
// path. Safe for concurrent use.
type countingPolicy struct {
	inner sched.Policy
	less  atomic.Int64
	cap   *vectorCapture
}

// captureStride spreads the captured vectors over the run instead of
// taking only the learning phase's first elections.
const captureStride = 64

func (p *countingPolicy) Name() string { return p.inner.Name() }

func (p *countingPolicy) Less(a, b *estvec.Vector) bool {
	if n := p.less.Add(1); n%captureStride == 0 {
		p.cap.add(a, b)
	}
	return p.inner.Less(a, b)
}

// vectorCapture keeps up to max vector copies.
type vectorCapture struct {
	mu   sync.Mutex
	max  int
	vecs []*estvec.Vector
}

func (c *vectorCapture) add(vs ...*estvec.Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range vs {
		if len(c.vecs) < c.max {
			c.vecs = append(c.vecs, v.Clone())
		}
	}
}

// tracedClock is the benchmark-owned sim.Module of traced runs,
// mounted last. It times the kernel from outside: the wall time from
// one task's arrival hook to the next is what the kernel spent on that
// task's election plus every event up to the next arrival. It also
// counts tasks in the system at each arrival, lifecycle events, and
// elections, whose policy it wraps in a countingPolicy (mounted last,
// it wraps the policy every other module produced).
type tracedClock struct {
	sim.BaseModule
	first, last time.Time
	arrivals    int
	intervals   []float64 // µs
	// depths[i] is the tasks in the system when interval i began.
	depths          []int
	depth, maxDepth int
	events          int64
	elections       int64
	pol             countingPolicy
}

func newTracedClock(tasks int, capture *vectorCapture) *tracedClock {
	c := &tracedClock{intervals: make([]float64, 0, tasks), depths: make([]int, 0, tasks)}
	c.pol.cap = capture
	return c
}

// OnArrival implements sim.Module.
func (c *tracedClock) OnArrival(float64, *workload.Task) {
	now := time.Now()
	if c.arrivals == 0 {
		c.first = now
	} else {
		c.intervals = append(c.intervals, float64(now.Sub(c.last).Nanoseconds())/1e3)
		c.depths = append(c.depths, c.depth)
	}
	c.last = now
	c.arrivals++
	c.depth++
	c.maxDepth = max(c.maxDepth, c.depth)
}

// OnFinish implements sim.Module.
func (c *tracedClock) OnFinish(sim.TaskRecord) { c.depth-- }

// OnLifecycle implements sim.LifecycleObserver.
func (c *tracedClock) OnLifecycle(ev obs.Event) {
	c.events++
	if ev.Event == obs.EventReject {
		c.depth--
	}
}

// WrapPolicy implements sim.Module. The wrapper is reused: the kernel
// holds the returned policy only for the one election.
func (c *tracedClock) WrapPolicy(_ float64, _ workload.Task, base sched.Policy) sched.Policy {
	c.elections++
	c.pol.inner = base
	return &c.pol
}

// hookTimer accumulates one module's hook time.
type hookTimer struct {
	ns    int64
	calls int64
}

func (h *hookTimer) since(start time.Time) {
	h.ns += time.Since(start).Nanoseconds()
	h.calls++
}

// timedModule forwards every hook of a sim.Module and times it.
type timedModule struct {
	inner sim.Module
	t     *hookTimer
}

// timedObserver is timedModule for modules that also observe the
// lifecycle: the kernel type-asserts sim.LifecycleObserver, so the
// wrapper must keep exposing it, and only then.
type timedObserver struct {
	*timedModule
	obs sim.LifecycleObserver
}

func (m *timedObserver) OnLifecycle(ev obs.Event) {
	defer m.t.since(time.Now())
	m.obs.OnLifecycle(ev)
}

// wrapModule times m's hooks into t.
func wrapModule(m sim.Module, t *hookTimer) sim.Module {
	w := &timedModule{inner: m, t: t}
	if o, ok := m.(sim.LifecycleObserver); ok {
		return &timedObserver{timedModule: w, obs: o}
	}
	return w
}

func (m *timedModule) Init(r *sim.Runner) error {
	defer m.t.since(time.Now())
	return m.inner.Init(r)
}

func (m *timedModule) OnArrival(now float64, t *workload.Task) {
	defer m.t.since(time.Now())
	m.inner.OnArrival(now, t)
}

func (m *timedModule) WrapPolicy(now float64, t workload.Task, base sched.Policy) sched.Policy {
	defer m.t.since(time.Now())
	return m.inner.WrapPolicy(now, t, base)
}

func (m *timedModule) OnFinish(rec sim.TaskRecord) {
	defer m.t.since(time.Now())
	m.inner.OnFinish(rec)
}

func (m *timedModule) OnTick(now float64, ctl sim.Control) {
	defer m.t.since(time.Now())
	m.inner.OnTick(now, ctl)
}

func (m *timedModule) Finalize(res *sim.Result) {
	defer m.t.since(time.Now())
	m.inner.Finalize(res)
}
