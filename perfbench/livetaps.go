package main

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/middleware"
	"greensched/internal/power"
	"greensched/internal/powerd"
)

// The taps below wrap the live layers' public surfaces from outside
// the program: each forwards the call unchanged, plus every optional
// interface the middleware type-asserts on the wrapped value, and
// records the call's interval. They are mounted only on the traced
// fleet.

// interval is one timed call.
type interval struct{ start, end time.Time }

func (iv interval) us() float64 { return float64(iv.end.Sub(iv.start).Nanoseconds()) / 1e3 }

// callKind is the layer a recorded call belongs to.
type callKind int

const (
	callEstimate callKind = iota
	callSolve
	nCallKinds
)

// liveTaps collects what the taps record during one traced phase.
// Calls are attributed to their request by Request.ID; IDs outside
// [base, base+len(reqs)) (warmups) are ignored.
type liveTaps struct {
	mu    sync.Mutex
	base  uint64
	reqs  [][nCallKinds][]interval
	calls [nCallKinds][]float64 // µs per call
	power []float64             // µs per powerd reading
}

// arm starts recording for requests base..base+n-1.
func (t *liveTaps) arm(base uint64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = base
	t.reqs = make([][nCallKinds][]interval, n)
	t.calls = [nCallKinds][]float64{}
	t.power = nil
}

func (t *liveTaps) record(id uint64, kind callKind, start, end time.Time) {
	iv := interval{start, end}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < t.base || id-t.base >= uint64(len(t.reqs)) {
		return
	}
	r := &t.reqs[id-t.base]
	r[kind] = append(r[kind], iv)
	t.calls[kind] = append(t.calls[kind], iv.us())
}

func (t *liveTaps) recordPower(start, end time.Time) {
	us := interval{start, end}.us()
	t.mu.Lock()
	t.power = append(t.power, us)
	t.mu.Unlock()
}

// remoteTap wraps a *middleware.Remote, which the master uses both as
// a Child (estimation fan-out) and as a Solver (dispatch); like the
// Remote it also serves the fallible Stats the master's SEDStats
// asserts.
type remoteTap struct {
	rem  *middleware.Remote
	taps *liveTaps
}

func (r *remoteTap) Name() string { return r.rem.Name() }

func (r *remoteTap) Estimate(ctx context.Context, req middleware.Request) (estvec.List, error) {
	start := time.Now()
	list, err := r.rem.Estimate(ctx, req)
	r.taps.record(req.ID, callEstimate, start, time.Now())
	return list, err
}

func (r *remoteTap) Solve(ctx context.Context, req middleware.Request) (middleware.Response, error) {
	start := time.Now()
	resp, err := r.rem.Solve(ctx, req)
	r.taps.record(req.ID, callSolve, start, time.Now())
	return resp, err
}

func (r *remoteTap) Stats() (middleware.SEDStats, error) { return r.rem.Stats() }

// sedSolverTap wraps an in-process *middleware.SED as the directory's
// Solver, forwarding the in-process Stats the master asserts. The SED
// itself stays the agent's child, so the agent keeps its sequential
// all-SED fan-out (it type-asserts *SED, which no wrapper can pass).
type sedSolverTap struct {
	sed  *middleware.SED
	taps *liveTaps
}

func (s *sedSolverTap) Solve(ctx context.Context, req middleware.Request) (middleware.Response, error) {
	start := time.Now()
	resp, err := s.sed.Solve(ctx, req)
	s.taps.record(req.ID, callSolve, start, time.Now())
	return resp, err
}

func (s *sedSolverTap) Stats() middleware.SEDStats { return s.sed.Stats() }

// tapDirectory is a MapDirectory whose in-process SEDs are registered
// behind sedSolverTap; it keeps the Add and Names the master uses.
type tapDirectory struct {
	*middleware.MapDirectory
	taps *liveTaps
}

func (d *tapDirectory) Add(name string, s middleware.Solver) {
	if sed, ok := s.(*middleware.SED); ok {
		s = &sedSolverTap{sed: sed, taps: d.taps}
	}
	d.MapDirectory.Add(name, s)
}

// estimationTap is mounted last on each in-process SED: its
// WrapEstimation times the SED's whole estimation chain, sidecar
// readings included. It is not a PowerSource, so the SED's power path
// is unchanged.
type estimationTap struct {
	middleware.BaseInterceptor
	taps *liveTaps
}

func (e *estimationTap) WrapEstimation(base middleware.EstimationFunc) middleware.EstimationFunc {
	return func(s *middleware.SED, req middleware.Request) *estvec.Vector {
		start := time.Now()
		v := base(s, req)
		e.taps.record(req.ID, callEstimate, start, time.Now())
		return v
	}
}

// sourceTap wraps the powerd client as the SEDs' power.Source, keeping
// the LastReading, Stats and Readings surfaces the external-power
// interceptor asserts on its source.
type sourceTap struct {
	cli  *powerd.Client
	taps *liveTaps
}

func (s *sourceTap) NodePowerW(node string, metrics []string, values []float64) (power.Watts, bool) {
	start := time.Now()
	w, ok := s.cli.NodePowerW(node, metrics, values)
	s.taps.recordPower(start, time.Now())
	return w, ok
}

func (s *sourceTap) LastReading(node string) (power.Watts, float64, bool) {
	return s.cli.LastReading(node)
}

func (s *sourceTap) Stats() powerd.Stats { return s.cli.Stats() }

func (s *sourceTap) Readings() []powerd.Reading { return s.cli.Readings() }

// electionCounter is mounted on the traced master and counts the
// elections the master completes: it sees one OnElect per election,
// retries included.
type electionCounter struct {
	middleware.BaseInterceptor
	n atomic.Int64
}

func (e *electionCounter) OnElect(float64, middleware.Request, string, estvec.List) { e.n.Add(1) }

// countingWriter is the io.Writer handed to obs.NewSpanWriter on the
// traced fleet: one Write per span (the writer encodes each span in
// one call), with bytes and time spent writing.
type countingWriter struct {
	w      io.Writer
	writes atomic.Int64
	bytes  atomic.Int64
	ns     atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.w.Write(p)
	c.ns.Add(time.Since(start).Nanoseconds())
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingWriter) reset() {
	c.writes.Store(0)
	c.bytes.Store(0)
	c.ns.Store(0)
}
