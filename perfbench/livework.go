package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"greensched/internal/cluster"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/sched"
)

// liveSpec is one live workload.
type liveSpec struct {
	build func(dir, name string, traced bool) (*fleet, error)
	// fixedRate is the offered rate (req/s) of the latency windows:
	// about a quarter of capacity on the commit that defined the
	// benchmark (so a host running at half speed still has headroom),
	// kept fixed so later commits are measured at the same load.
	fixedRate float64
}

var (
	tcpSpec     = liveSpec{build: buildTCP, fixedRate: 1000}
	durableSpec = liveSpec{build: buildDurable, fixedRate: 800}
)

const (
	// warmSec of load at the fixed rate precedes the latency phase, so
	// buffers, stacks and the heap have grown before timing starts.
	warmSec = 0.5
	// latencyShare is the share of --seconds each of the plain and
	// traced latency phases of --trace 1 takes.
	latencyShare = 0.4
	// An untraced run alternates, for --seconds, a latency window of
	// open-loop load at the fixed rate with a capacity block of
	// capacityClients closed-loop callers, enough to keep both CPUs
	// busy. Alternating spreads both measurements over the whole run.
	latencyWindowSec = 0.5
	capacityBlockSec = 0.5
	capacityClients  = 8
)

// fleet is one deployment under test: a master and what it dispatches
// to, plus the books the output checks compare.
type fleet struct {
	master  *middleware.Master
	nextID  atomic.Uint64
	closers []func() error

	sent, ok, failed int

	jrn      *journal.Journal
	cli      *powerd.Client
	spanPath string

	// Traced fleets only.
	taps      *liveTaps
	policy    *countingPolicy
	elections *electionCounter
	spanTap   *countingWriter
}

func (f *fleet) submitter() submitter { return submitter{master: f.master, nextID: &f.nextID} }

func (f *fleet) account(ph *phase) {
	f.sent += ph.sent
	f.ok += ph.ok
	f.failed += ph.failed
}

// close releases the fleet in reverse order of construction.
func (f *fleet) close() error {
	var first error
	for i := len(f.closers) - 1; i >= 0; i-- {
		if err := f.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	f.closers = nil
	return first
}

// warmup runs the learning phase: sequential requests until every SED
// has been measured, exactly like the live study's warmups.
func (f *fleet) warmup(n int) error {
	for i := 0; i < n; i++ {
		f.sent++
		if _, err := f.master.Do(context.Background(), middleware.Request{ID: f.nextID.Add(1), Service: "compute", Ops: liveOpsMean}); err != nil {
			f.failed++
			return fmt.Errorf("warmup: %w", err)
		}
		f.ok++
	}
	return nil
}

// instantSED builds a SED whose one service returns at once, so
// latency measures the middleware, not a solver.
func instantSED(cfg middleware.SEDConfig) (*middleware.SED, error) {
	sed, err := middleware.NewSED(cfg)
	if err != nil {
		return nil, err
	}
	return sed, sed.Register(middleware.Service{
		Name:  "compute",
		Solve: func(context.Context, middleware.Request) ([]byte, error) { return nil, nil },
	})
}

// newFleet starts a fleet and the master options every fleet shares,
// tracing it when asked: the election policy is wrapped in a
// countingPolicy, an electionCounter is mounted and the taps are
// allocated.
func newFleet(traced bool) (*fleet, []middleware.Option) {
	f := &fleet{}
	var pol sched.Policy = sched.New(sched.GreenPerf)
	if !traced {
		return f, []middleware.Option{middleware.WithPolicy(pol)}
	}
	f.taps = &liveTaps{}
	f.policy = &countingPolicy{inner: pol, cap: &vectorCapture{max: 512}}
	f.elections = &electionCounter{}
	return f, []middleware.Option{middleware.WithPolicy(f.policy), middleware.WithInterceptors(f.elections)}
}

// buildTCP is live-tcp: one master over middleware.Serve/Dial to two
// SED endpoints on loopback (lean 60 W, hungry 400 W), one connection
// each, with the program's span tracing written to a file.
func buildTCP(dir, name string, traced bool) (fl *fleet, err error) {
	f, opts := newFleet(traced)
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.spanPath = filepath.Join(dir, name+"-spans.jsonl")
	file, err := os.Create(f.spanPath)
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, file.Close)
	var w io.Writer = file
	if traced {
		f.spanTap = &countingWriter{w: file}
		w = f.spanTap
	}
	spans := obs.NewSpanWriter(w)
	var remotes []*middleware.Remote
	for _, node := range []struct {
		name  string
		watts float64
	}{{"lean", 60}, {"hungry", 400}} {
		watts := node.watts
		sed, err := instantSED(middleware.SEDConfig{
			Name: node.name, Slots: 4, Spans: spans,
			Interceptors: []middleware.Interceptor{
				&middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
			},
		})
		if err != nil {
			return nil, err
		}
		ep, err := middleware.Serve("127.0.0.1:0", sed, sed)
		if err != nil {
			return nil, err
		}
		f.closers = append(f.closers, ep.Close)
		rem := middleware.Dial(node.name, ep.Addr())
		rem.SetSpans(spans)
		f.closers = append(f.closers, rem.Close)
		remotes = append(remotes, rem)
	}
	opts = append(opts, middleware.WithSpans(spans))
	if traced {
		dir := middleware.NewMapDirectory()
		var children []middleware.Child
		for _, rem := range remotes {
			tap := &remoteTap{rem: rem, taps: f.taps}
			dir.Add(rem.Name(), tap)
			children = append(children, tap)
		}
		opts = append(opts, middleware.WithTransport(dir), middleware.WithChildren(children...))
	} else {
		opts = append(opts, middleware.WithRemotes(remotes...))
	}
	if f.master, err = middleware.NewMaster(opts...); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, f.master.Close)
	return f, f.warmup(8)
}

// buildDurable is live-durable: one master over twelve in-process SEDs
// with the paper platform's node curves, every request journaled, and
// every power reading fetched from a powerd sidecar over one
// unix-socket connection. No span tracing. The journal runs with
// NoSync: with a per-append fsync, every figure of this workload swung
// two- to four-fold between runs on a shared disk, so the workload
// measures the journal's encode and write path, not the disk.
func buildDurable(dir, name string, traced bool) (fl *fleet, err error) {
	f, opts := newFleet(traced)
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	platform := cluster.PaperPlatform()
	curves := power.CurveSource{Nodes: map[string]power.Model{}}
	for _, spec := range platform.Nodes {
		curves.Nodes[spec.Name] = spec.PowerModel()
	}
	addr := "unix:" + filepath.Join(dir, name+".sock")
	srv, err := powerd.Serve(addr, curves, powerd.Options{})
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, srv.Close)
	if f.cli, err = powerd.NewClient(powerd.Config{Addr: addr, Fallback: curves}); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, f.cli.Close)
	var src power.Source = f.cli
	if traced {
		src = &sourceTap{cli: f.cli, taps: f.taps}
	}
	var seds []*middleware.SED
	for _, spec := range platform.Nodes {
		ics := []middleware.Interceptor{&middleware.ExternalPowerInterceptor{Source: src}}
		if traced {
			ics = append(ics, &estimationTap{taps: f.taps})
		}
		sed, err := instantSED(middleware.SEDConfig{Name: spec.Name, Slots: spec.Cores, Interceptors: ics})
		if err != nil {
			return nil, err
		}
		seds = append(seds, sed)
	}
	if f.jrn, err = journal.Open(filepath.Join(dir, name+".wal"), journal.Options{NoSync: true}); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, f.jrn.Close)
	opts = append(opts, middleware.WithJournal(f.jrn), middleware.WithSEDs(seds...))
	if traced {
		opts = append(opts, middleware.WithTransport(&tapDirectory{MapDirectory: middleware.NewMapDirectory(), taps: f.taps}))
	}
	if f.master, err = middleware.NewMaster(opts...); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, f.master.Close)
	return f, f.warmup(2 * len(seds))
}

// books are a fleet's final ledger and journal counts, compared
// between the plain and the traced fleet.
type books struct {
	submitted, completed, failed, rejected int
	appended                               uint64
}

// finish applies the live output checks and closes the fleet: the
// master's ledger agrees with the generator's counts, the journal is
// drained without sync errors, the sidecar never fell back, and the
// span file parses with every successful request's canonical stages.
func (f *fleet) finish(out *outcome, rep *report) (books, error) {
	res := f.master.Finalize()
	b := books{submitted: res.Submitted, completed: res.Completed, failed: res.Failed, rejected: res.Rejected}
	out.check(res.Completed == f.ok, "ledger counts %d completions, %d requests succeeded", res.Completed, f.ok)
	out.check(res.Submitted == f.sent, "ledger counts %d submissions, %d requests were sent", res.Submitted, f.sent)
	out.check(res.Failed+res.Rejected == f.failed, "ledger counts %d failed and %d rejected, %d requests failed", res.Failed, res.Rejected, f.failed)
	if f.jrn != nil {
		st := f.jrn.Stats()
		b.appended = st.Appended
		out.check(st.Pending == 0, "journal ends with %d pending lifecycles", st.Pending)
		out.check(st.SyncErrors == 0, "journal counted %d fsync errors", st.SyncErrors)
	}
	if f.cli != nil {
		st := f.cli.Stats()
		out.check(st.Fallbacks == 0 && !st.BreakerOpen, "powerd client fell back: %d fallbacks, breaker open %v", st.Fallbacks, st.BreakerOpen)
	}
	if err := f.close(); err != nil {
		return b, err
	}
	if f.spanPath != "" {
		spans, err := readSpanFile(f.spanPath)
		out.check(err == nil, "span file does not parse: %v", err)
		report := obs.AnalyzeSpans(spans)
		out.check(report.RequireStages(obs.CanonicalStages...) == nil, "span file: %v", report.RequireStages(obs.CanonicalStages...))
		clean := 0
		for _, tr := range report.Traces {
			if tr.Err == "" {
				clean++
			}
		}
		out.check(clean == f.ok, "span file holds %d error-free traces for %d successful requests", clean, f.ok)
		rep.printf("span file: %d spans, %d traces carry %v", len(spans), clean, obs.CanonicalStages)
	}
	return b, nil
}

func readSpanFile(path string) ([]obs.Span, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return obs.ReadSpans(bufio.NewReader(fh))
}

// workDir makes the run's scratch directory under the working
// directory (relative, so unix socket paths stay short) and returns a
// function that removes it.
func workDir() (string, func(), error) {
	dir := filepath.Join(".bench_run", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(".bench_run") // only when no other run uses it
	}, nil
}

func runLiveTCP(o options, rep *report) (*outcome, error)     { return runLive(o, rep, tcpSpec) }
func runLiveDurable(o options, rep *report) (*outcome, error) { return runLive(o, rep, durableSpec) }

// latencyPhase offers the fixed rate for warmSec, calls arm (when set)
// with the measured schedule's length, then offers it for seconds and
// returns that phase with its p50 and p99 latency (µs).
func latencyPhase(f *fleet, spec liveSpec, seed int64, seconds float64, arm func(n int)) (ph *phase, p50, p99 float64, err error) {
	warm, err := f.submitter().drive(poissonArrivals(seed+1, spec.fixedRate, warmSec))
	if err != nil {
		return nil, 0, 0, err
	}
	f.account(warm)
	sched := poissonArrivals(seed, spec.fixedRate, seconds)
	if arm != nil {
		arm(len(sched))
	}
	ph, err = f.submitter().drive(sched)
	if err != nil {
		return nil, 0, 0, err
	}
	f.account(ph)
	lat := ph.latencies()
	if p50, err = percentile(lat, 0.5); err != nil {
		return nil, 0, 0, fmt.Errorf("latency phase: %w", err)
	}
	if p99, err = percentile(lat, 0.99); err != nil {
		return nil, 0, 0, fmt.Errorf("latency phase: %w", err)
	}
	return ph, p50, p99, nil
}

func runLive(o options, rep *report, spec liveSpec) (*outcome, error) {
	dir, cleanup, err := workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	out := newOutcome()
	if o.trace {
		return out, traceLive(o, rep, spec, dir, out)
	}
	var f *fleet
	setupStart := time.Now()
	setupS, setups, err := timeSetups(func(i int) (err error) {
		f, err = spec.build(dir, fmt.Sprintf("setup%d", i), false)
		return err
	}, func() error { return f.close() })
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(setupStart)
	defer f.close()
	runtime.GC() // start measuring from the same heap whatever set-up left

	t0 := time.Now()
	d := f.submitter()
	params := poissonArrivals(o.seed+2, spec.fixedRate, 8)
	var windows, rates, lat, late []float64
	capSent := 0
	cycles := int(o.seconds / (latencyWindowSec + capacityBlockSec))
	for c := -1; c < max(cycles, 1); c++ { // cycle -1 warms up
		ph, err := d.drive(poissonArrivals(o.seed*1000+int64(c), spec.fixedRate, latencyWindowSec))
		if err != nil {
			return nil, err
		}
		f.account(ph)
		cp, rate, err := d.saturate(params, capacityClients, capacityBlockSec)
		if err != nil {
			return nil, err
		}
		f.account(cp)
		if c < 0 {
			continue
		}
		l := ph.latencies()
		p50, err := percentile(l, 0.5)
		if err != nil {
			return nil, fmt.Errorf("latency window %d: %w", c, err)
		}
		windows = append(windows, p50)
		lat = append(lat, l...)
		late = append(late, ph.lateUs...)
		rates = append(rates, rate)
		capSent += cp.sent
	}
	rep.printf("%d cycles of a %gs latency window at %.0f req/s and a %gs capacity block of %d closed-loop callers",
		len(windows), latencyWindowSec, spec.fixedRate, capacityBlockSec, capacityClients)
	rep.printf("  latency: %d requests, p50 %.1f us p99 %.1f us, generator late p99 %.0f us; window p50s %s",
		len(lat), pct(rep, "latency p50", lat, 0.5), pct(rep, "latency p99", lat, 0.99), pct(rep, "late", late, 0.99), fmtList(windows, "%.0f"))
	rep.printf("  capacity: %d requests; block req/s %s", capSent, fmtList(rates, "%.0f"))
	t1 := time.Now()
	mem, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = int64(f.sent), int64(f.failed)
	if _, err := f.finish(out, rep); err != nil {
		return nil, err
	}
	rep.printf("wall: setup %.2fs (%d fleets), measuring %.2fs, checks %.2fs", setupWall.Seconds(), setups, t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	okRatio := float64(f.ok) / float64(f.sent)
	out.values["setup_s"] = setupS
	out.values["mem_peak_mb"] = mem
	out.values["throughput_per_s"] = mean(rates)
	out.values["latency_ms"] = mean(windows) / 1e3
	out.values["ok_ratio"] = okRatio
	rep.printf("e2e: capacity=%.1f req/s (block mean) lat_p50_ms=%.4f ms (mean of window p50s) setup_s=%.6f mem_peak_mb=%.1f fail_ratio=%g",
		out.values["throughput_per_s"], out.values["latency_ms"], setupS, mem, 1-okRatio)
	return out, nil
}

// traceLive runs the latency phase twice on the same schedule: on a
// plain fleet, then on a traced one. The two fleets' books must agree;
// the traced phase gives the per-layer metrics and the ledger.
func traceLive(o options, rep *report, spec liveSpec, dir string, out *outcome) error {
	seconds := latencyShare * o.seconds
	plain, err := spec.build(dir, "plain", false)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	plainPh, plainP50, plainP99, err := latencyPhase(plain, spec, o.seed, seconds, func(int) { runtime.ReadMemStats(&before) })
	if err != nil {
		plain.close()
		return err
	}
	runtime.ReadMemStats(&after)
	plainBooks, err := plain.finish(out, rep)
	if err != nil {
		return err
	}

	tr, err := spec.build(dir, "traced", true)
	if err != nil {
		return err
	}
	var lessBefore, electBefore int64
	var jBefore journal.Stats
	var pBefore powerd.Stats
	ph, _, _, err := latencyPhase(tr, spec, o.seed, seconds, func(n int) {
		tr.taps.arm(tr.nextID.Load()+1, n)
		lessBefore = tr.policy.less.Load()
		electBefore = tr.elections.n.Load()
		if tr.jrn != nil {
			jBefore = tr.jrn.Stats()
		}
		if tr.cli != nil {
			pBefore = tr.cli.Stats()
		}
		if tr.spanTap != nil {
			tr.spanTap.reset()
		}
	})
	if err != nil {
		tr.close()
		return err
	}
	reqs := float64(ph.sent)
	v := out.values
	elections := float64(tr.elections.n.Load() - electBefore)
	v["sched.elections"] = elections
	v["sched.less_calls_per_election"] = float64(tr.policy.less.Load()-lessBefore) / elections
	if tr.jrn != nil {
		st := tr.jrn.Stats()
		v["journal.appends_per_req"] = float64(st.Appended-jBefore.Appended) / reqs
		v["journal.bytes_per_req"] = float64(st.BytesTotal-jBefore.BytesTotal) / reqs
		v["journal.sync_errors"] = float64(st.SyncErrors)
	}
	if tr.cli != nil {
		st := tr.cli.Stats()
		v["powerd.calls_per_req"] = float64(len(tr.taps.power)) / reqs
		v["powerd.cache_hits_per_req"] = float64(st.CacheHits-pBefore.CacheHits) / reqs
		v["powerd.errors"] = float64(st.Errors)
		v["powerd.fallbacks"] = float64(st.Fallbacks)
		v["powerd.call_us.p50"] = pct(rep, "powerd.call_us.p50", tr.taps.power, 0.5)
		v["powerd.call_us.p99"] = pct(rep, "powerd.call_us.p99", tr.taps.power, 0.99)
	}
	if tr.spanTap != nil {
		v["obs.spans_per_req"] = float64(tr.spanTap.writes.Load()) / reqs
		v["obs.span_bytes_per_req"] = float64(tr.spanTap.bytes.Load()) / reqs
		v["obs.write_us_per_req"] = float64(tr.spanTap.ns.Load()) / 1e3 / reqs
	}
	tracedBooks, err := tr.finish(out, rep)
	if err != nil {
		return err
	}
	out.check(plainBooks == tracedBooks, "traced fleet's books %+v differ from the plain fleet's %+v", tracedBooks, plainBooks)
	rep.printf("books plain=%+v traced=%+v", plainBooks, tracedBooks)
	out.attempted = int64(plain.sent + tr.sent)
	out.failed = int64(plain.failed + tr.failed)

	if err := measureEstvec(v, tr.policy.cap.vecs); err != nil {
		return err
	}
	if tr.spanPath != "" {
		spans, err := readSpanFile(tr.spanPath)
		if err != nil {
			return err
		}
		v["obs.emit_ns"] = emitNs(spans)
	}

	lat := ph.latencies()
	var delay, do []float64
	for _, s := range ph.samples {
		delay = append(delay, s.startDelayUs())
		do = append(do, s.doUs())
	}
	v["loadgen.late_us.p99"] = pct(rep, "loadgen.late_us.p99", ph.lateUs, 0.99)
	v["loadgen.start_delay_us.p50"] = pct(rep, "loadgen.start_delay_us.p50", delay, 0.5)
	v["loadgen.plain.lat_us.p99"] = plainP99
	v["loadgen.plain.sent"] = float64(plainPh.sent)
	v["loadgen.plain.ok"] = float64(plainPh.ok)
	v["loadgen.plain.failed"] = float64(plainPh.failed)
	v["loadgen.traced.sent"] = float64(ph.sent)
	v["loadgen.traced.ok"] = float64(ph.ok)
	v["loadgen.traced.failed"] = float64(ph.failed)
	v["middleware.master.do_us.p50"] = pct(rep, "middleware.master.do_us.p50", do, 0.5)
	v["middleware.master.do_us.p99"] = pct(rep, "middleware.master.do_us.p99", do, 0.99)
	v["middleware.master.allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / float64(plainPh.sent)
	tracedP50 := pct(rep, "latency p50", lat, 0.5)
	v["trace.overhead_frac"] = tracedP50 / plainP50
	v["trace.residual_us"] = tracedP50 - v["loadgen.start_delay_us.p50"] - v["middleware.master.do_us.p50"]

	layer := "middleware.sed"
	if tr.spanPath != "" {
		layer = "middleware.transport"
	}
	ledgerLive(o, rep, v, layer, ph, tr.taps, tracedP50, plainP50)
	return nil
}

// ledgerLive computes the per-request layer split of the traced phase
// and prints the ledger: the layers' self-time medians against
// master.do_us.p50, and do plus the generator's start delay against the
// request latency, with the residuals.
func ledgerLive(o options, rep *report, v map[string]float64, layer string, ph *phase, taps *liveTaps, tracedP50, plainP50 float64) {
	var self, est, solve []float64
	for i, s := range ph.samples {
		calls := taps.reqs[i]
		do := interval{s.start, s.end}
		e := covered(do, calls[callEstimate])
		so := covered(do, calls[callSolve])
		all := covered(do, append(append([]interval(nil), calls[callEstimate]...), calls[callSolve]...))
		est = append(est, e)
		solve = append(solve, so)
		self = append(self, do.us()-all)
	}
	v["middleware.master.self_us.p50"] = pct(rep, "middleware.master.self_us.p50", self, 0.5)
	callsPerReq := float64(len(taps.calls[callEstimate])+len(taps.calls[callSolve])) / float64(ph.sent)
	if layer == "middleware.transport" {
		v[layer+".estimate_us.p99"] = pct(rep, layer+".estimate_us.p99", taps.calls[callEstimate], 0.99)
		v[layer+".solve_us.p99"] = pct(rep, layer+".solve_us.p99", taps.calls[callSolve], 0.99)
		v[layer+".calls_per_req"] = callsPerReq
	}
	v[layer+".estimate_us.p50"] = pct(rep, layer+".estimate_us.p50", taps.calls[callEstimate], 0.5)
	v[layer+".solve_us.p50"] = pct(rep, layer+".solve_us.p50", taps.calls[callSolve], 0.5)

	estP50 := pct(rep, "estimate per request", est, 0.5)
	solveP50 := pct(rep, "solve per request", solve, 0.5)
	selfP50 := v["middleware.master.self_us.p50"]
	doP50 := v["middleware.master.do_us.p50"]
	delayP50 := v["loadgen.start_delay_us.p50"]
	rep.printf("ledger %s traced phase, %d requests, p50 per request in us (%.1f calls/req into %s):", o.workload, ph.sent, callsPerReq, layer)
	rep.printf("  %-52s %10.1f", "middleware.master self", selfP50)
	rep.printf("  %-52s %10.1f", layer+" estimate (union of the fan-out)", estP50)
	rep.printf("  %-52s %10.1f", layer+" solve", solveP50)
	rep.printf("  %-52s %10.1f   vs middleware.master.do_us.p50 %.1f: residual %.1f", "sum of layers", selfP50+estP50+solveP50, doP50, doP50-selfP50-estP50-solveP50)
	if n := v["powerd.calls_per_req"]; n > 0 {
		rep.printf("  %-52s %10.1f   (%.1f calls x p50 %.1f us, inside estimate and solve)", "of which powerd", n*v["powerd.call_us.p50"], n, v["powerd.call_us.p50"])
	}
	if w := v["obs.write_us_per_req"]; w > 0 {
		rep.printf("  %-52s %10.1f   (mean; %.1f spans, %.0f B per request, spread over all layers)", "of which span writes", w, v["obs.spans_per_req"], v["obs.span_bytes_per_req"])
	}
	rep.printf("  %-52s %10.1f", "loadgen start delay", delayP50)
	rep.printf("  %-52s %10.1f   vs traced latency p50 %.1f: residual %.1f", "do + start delay", doP50+delayP50, tracedP50, v["trace.residual_us"])
	rep.printf("  %-52s %10.1f   (traced/plain %.3f)", "plain latency p50", plainP50, v["trace.overhead_frac"])
}

// covered is the time (µs) within outer that the calls cover, parallel
// calls counted once.
func covered(outer interval, calls []interval) float64 {
	if len(calls) == 0 {
		return 0
	}
	ivs := append([]interval(nil), calls...)
	for i := range ivs {
		if ivs[i].start.Before(outer.start) {
			ivs[i].start = outer.start
		}
		if ivs[i].end.After(outer.end) {
			ivs[i].end = outer.end
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	total := time.Duration(0)
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
		} else if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	total += cur.end.Sub(cur.start)
	return float64(total.Nanoseconds()) / 1e3
}

// pct is percentile for per-layer metrics: a refused percentile reads
// 0 and is named in the report.
func pct(rep *report, name string, xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		rep.printf("%s not reported: %v", name, err)
		return 0
	}
	return v
}

// emitNs re-emits captured spans into io.Discard through a fresh
// SpanWriter: the encoder's own cost per span, without the file.
func emitNs(spans []obs.Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	w := obs.NewSpanWriter(io.Discard)
	ns, _ := nsPerCall(len(spans), func() error {
		for _, sp := range spans {
			w.Emit(sp)
		}
		return nil
	})
	return ns
}
