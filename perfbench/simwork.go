package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"greensched/internal/budget"
	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/core"
	"greensched/internal/experiments"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// Sizing. sim-backlog: arrivals outpace the 104-core paper platform
// about fifty-fold, so tasks in the system climb past 4096 early and
// keep climbing: the regime where per-task cost grows with backlog.
// sim-composed: the composed study's mix scaled up on its six-node,
// one-slot platform, where the EDF/preemption path recomputes waits.
const (
	backlogTasksN     = 24000
	backlogBurst      = 2048
	backlogRate       = 64
	backlogOps        = 9e11
	composedTaskCount = 3000
)

// simInput is one sim workload's generated input plus a constructor
// of fresh run configurations (module instances hold per-run state).
type simInput struct {
	tasks []workload.Task
	// config builds a run over the input. On traced runs wrap wraps
	// each module of the stack (index into moduleNames) and clock is
	// mounted last; plain runs pass nil for both.
	config func(clock sim.Module, wrap func(i int, m sim.Module) sim.Module) sim.Config
	// stacked reports whether the input runs the composed module stack.
	stacked bool
}

func backlogInput(seed int64) *simInput {
	platform := cluster.PaperPlatform()
	tasks := backlogTasks(seed, backlogTasksN, backlogBurst, backlogRate, backlogOps)
	return &simInput{
		tasks: tasks,
		config: func(clock sim.Module, _ func(int, sim.Module) sim.Module) sim.Config {
			cfg := sim.Config{
				Platform: platform, Policy: sched.New(sched.GreenPerf), Tasks: tasks,
				Explore: true, Seed: seed,
			}
			if clock != nil {
				cfg.Modules = []sim.Module{clock}
			}
			return cfg
		},
	}
}

func composedInput(seed int64) *simInput {
	cfg := experiments.DefaultComposedConfig()
	cfg.ScaleTasks(composedTaskCount)
	scen := cfg.SLA
	tasks := composedTasks(seed, cfg)
	platform := cluster.MustPlatform(
		cluster.NewNodes("orion", 2),
		cluster.NewNodes("sagittaire", 2),
		cluster.NewNodes("taurus", 2),
	)
	profile := scen.Profile()
	catalog := sla.DefaultCatalog()
	return &simInput{
		tasks:   tasks,
		stacked: true,
		config: func(clock sim.Module, wrap func(int, sim.Module) sim.Module) sim.Config {
			tracker, err := budget.NewTracker(cfg.BudgetJ, cfg.BudgetHorizonSec)
			if err != nil {
				panic(err) // ScaleTasks keeps both positive
			}
			// Same order as moduleNames.
			mods := []sim.Module{
				&sim.CarbonModule{Profile: profile},
				&budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone},
				&sim.SLAModule{
					Config: &sla.Config{
						Catalog: catalog, Admission: &sla.Admission{Margin: scen.AdmissionMargin},
						Order: sched.NewOrder(sched.EDF), UrgentBypass: true,
					},
					WrapDeadline: true,
				},
				&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: cfg.RestartPenaltyFrac}},
				&consolidation.Module{Controller: &consolidation.CarbonController{
					Profile: profile, CleanG: scen.CleanG, DirtyG: scen.DirtyG,
					IdleTimeout: scen.IdleTimeout, MinOn: scen.MinOn,
					MaxDeferSec: scen.MaxDeferSec, DeadlineSlackSec: scen.DeadlineSlackSec,
					PreemptBatch: true,
				}},
			}
			if wrap != nil {
				for i, m := range mods {
					mods[i] = wrap(i, m)
				}
			}
			if clock != nil {
				mods = append(mods, clock)
			}
			return sim.NewScenario(platform, tasks,
				sim.WithExplore(),
				sim.WithSeed(seed),
				sim.WithSlotsPerNode(scen.SlotsPerNode),
				sim.WithPolicy(sched.New(sched.Carbon)),
				sim.WithTick(scen.TickSec),
				sim.WithRetryEvery(510),
				sim.WithModules(mods...),
			)
		},
	}
}

func runSimBacklog(o options, rep *report) (*outcome, error) {
	return runSim(o, rep, backlogInput)
}

func runSimComposed(o options, rep *report) (*outcome, error) {
	return runSim(o, rep, composedInput)
}

// simRep is one timed sim.Run.
type simRep struct {
	res        *sim.Result
	start, end time.Time
	wallS      float64
	digest     string
}

func runOnce(cfg sim.Config) (simRep, error) {
	start := time.Now()
	res, err := sim.Run(cfg)
	end := time.Now()
	if err != nil {
		return simRep{}, err
	}
	return simRep{res: res, start: start, end: end, wallS: end.Sub(start).Seconds(), digest: digest(res)}, nil
}

func runSim(o options, rep *report, build func(int64) *simInput) (*outcome, error) {
	var in *simInput
	setupS, setups, err := timeSetups(func(int) error {
		in = build(o.seed)
		in.config(nil, nil)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if o.trace {
		return out, traceSim(o, rep, in, out)
	}
	runtime.GC() // start measuring from the same heap whatever set-up left
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var wallMs []float64
	var first string
	for len(wallMs) < 3 || time.Since(start) < budget {
		r, err := runOnce(in.config(nil, nil))
		if err != nil {
			return nil, err
		}
		if first == "" {
			first = r.digest
			checkSimResult(out, in, r.res)
			rep.printf("sim digest %s tasks=%d completed=%d rejected=%d makespan=%.0fs energy=%.6gJ",
				r.digest, len(in.tasks), r.res.Completed, r.res.Rejected, r.res.Makespan, float64(r.res.EnergyJ))
		}
		out.check(r.digest == first, "rep %d digest %s differs from rep 1's %s", len(wallMs)+1, r.digest, first)
		wallMs = append(wallMs, r.wallS*1e3)
		out.attempted += int64(len(in.tasks))
		out.failed += int64(len(in.tasks) - resolved(r.res))
	}
	mem, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setupS
	out.values["mem_peak_mb"] = mem
	out.values["latency_ms"] = mean(wallMs)
	out.values["throughput_per_s"] = float64(out.attempted-out.failed) / (out.values["latency_ms"] / 1e3 * float64(len(wallMs)))
	out.values["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	rep.printf("e2e %d runs: sim_tasks_per_s=%.1f tasks/s study wall mean=%.1f ms (runs %s) setup_s=%.6f (mean of %d) mem_peak_mb=%.1f fail_ratio=%g",
		len(wallMs), out.values["throughput_per_s"], out.values["latency_ms"], fmtList(wallMs, "%.0f"), setupS, setups, mem,
		float64(out.failed)/float64(out.attempted))
	return out, nil
}

// traceSim runs the input plain and traced, checks both produce the
// same Results, and reports the per-layer metrics and the wall-time
// split of the traced run.
func traceSim(o options, rep *report, in *simInput, out *outcome) error {
	plain, err := runOnce(in.config(nil, nil))
	if err != nil {
		return err
	}
	checkSimResult(out, in, plain.res)
	capture := &vectorCapture{max: 512}
	clock := newTracedClock(len(in.tasks), capture)
	timers := make([]hookTimer, len(moduleNames))
	var wrap func(int, sim.Module) sim.Module
	if in.stacked {
		wrap = func(i int, m sim.Module) sim.Module { return wrapModule(m, &timers[i]) }
	}
	traced, err := runOnce(in.config(clock, wrap))
	if err != nil {
		return err
	}
	out.check(traced.digest == plain.digest, "traced run's Results digest %s differs from the plain run's %s", traced.digest, plain.digest)
	rep.printf("sim digest plain=%s traced=%s", plain.digest, traced.digest)
	out.attempted = int64(2 * len(in.tasks))
	out.failed = int64(2*len(in.tasks) - resolved(plain.res) - resolved(traced.res))

	v := out.values
	var err1, err2 error
	v["sim.arrival_us.p50"], err1 = percentile(clock.intervals, 0.5)
	v["sim.arrival_us.p99"], err2 = percentile(clock.intervals, 0.99)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("arrival latency: %v %v", err1, err2)
	}
	buckets := []struct {
		name   string
		lo, hi int
	}{
		{"depth_lt256", 0, 256}, {"depth_lt4096", 256, 4096}, {"depth_ge4096", 4096, math.MaxInt},
	}
	bucketWall := make([]float64, len(buckets))
	for bi, b := range buckets {
		var xs []float64
		for i, d := range clock.depths {
			if d >= b.lo && d < b.hi {
				xs = append(xs, clock.intervals[i])
				bucketWall[bi] += clock.intervals[i]
			}
		}
		if q, err := percentile(xs, 0.5); err == nil {
			v["sim.arrival_us."+b.name] = q
		} else {
			rep.printf("sim.arrival_us.%s not reported: %v", b.name, err)
		}
	}
	v["sim.depth_max"] = float64(clock.maxDepth)
	v["sim.events"] = float64(clock.events)
	v["sched.elections"] = float64(clock.elections)
	v["sched.less_calls_per_election"] = float64(clock.pol.less.Load()) / float64(clock.elections)
	hookNs := int64(0)
	for i, name := range moduleNames {
		if t := timers[i]; t.calls > 0 {
			v["simmod."+name+".hook_us"] = float64(t.ns) / float64(t.calls) / 1e3
			hookNs += t.ns
		}
	}
	if err := measureEstvec(v, capture.vecs); err != nil {
		return err
	}
	v["trace.overhead_frac"] = traced.wallS / plain.wallS

	// Ledger: the traced run's wall time split into the time before the
	// first arrival hook, the hook-to-hook intervals by backlog depth,
	// and the drain after the last arrival.
	wallUs := traced.wallS * 1e6
	preUs := float64(clock.first.Sub(traced.start).Nanoseconds()) / 1e3
	drainUs := float64(traced.end.Sub(clock.last).Nanoseconds()) / 1e3
	covered := preUs + drainUs
	rep.printf("ledger %s traced wall %.1f ms (plain %.1f ms, overhead x%.3f)", o.workload, wallUs/1e3, plain.wallS*1e3, traced.wallS/plain.wallS)
	rep.printf("  %-28s %10.1f ms %6.2f%%", "before first arrival", preUs/1e3, 100*preUs/wallUs)
	for bi, b := range buckets {
		rep.printf("  %-28s %10.1f ms %6.2f%%", "arrival intervals "+b.name, bucketWall[bi]/1e3, 100*bucketWall[bi]/wallUs)
		covered += bucketWall[bi]
	}
	rep.printf("  %-28s %10.1f ms %6.2f%%", "drain after last arrival", drainUs/1e3, 100*drainUs/wallUs)
	if in.stacked {
		rep.printf("  %-28s %10.1f ms %6.2f%% (inside the rows above)", "of which module hooks", float64(hookNs)/1e6, 100*float64(hookNs)/1e3/wallUs)
		for i, name := range moduleNames {
			rep.printf("    simmod.%-20s %10.1f ms in %d hooks", name, float64(timers[i].ns)/1e6, timers[i].calls)
		}
	}
	v["trace.residual_us"] = wallUs - covered
	rep.printf("  %-28s %10.3f ms", "residual", (wallUs-covered)/1e3)
	return nil
}

// resolved counts tasks whose fate is settled.
func resolved(res *sim.Result) int { return res.Completed + res.Rejected }

// checkSimResult applies the sim output checks: every generated task
// resolved, and the per-cluster energy adds up to the platform total.
func checkSimResult(out *outcome, in *simInput, res *sim.Result) {
	out.check(resolved(res) == len(in.tasks), "resolved %d of %d generated tasks", resolved(res), len(in.tasks))
	clusterSum := 0.0
	for _, e := range res.PerClusterEnergy {
		clusterSum += float64(e)
	}
	total := float64(res.EnergyJ)
	out.check(math.Abs(clusterSum-total) <= 1e-9*math.Abs(total), "per-cluster energy sums to %.12g J, platform total is %.12g J", clusterSum, total)
}

// digest is a hash of everything a Result reports, in a fixed order.
func digest(res *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %v %v %d %d %d %d %v %d %d %d %v\n", res.Policy, res.Makespan, float64(res.EnergyJ),
		res.Completed, res.Rejected, res.Crashed, res.Preemptions, res.PreemptRedoneOps,
		res.Boots, res.Shutdowns, res.DeadlineMisses, res.CO2Grams)
	keys := make([]string, 0, len(res.PerNodeEnergyJ))
	for k := range res.PerNodeEnergyJ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %v %d %v\n", k, float64(res.PerNodeEnergyJ[k]), res.PerNodeTasks[k], res.PerNodeCO2G[k])
	}
	for _, r := range res.Records {
		fmt.Fprintf(h, "%d %s %v %v %v %v %v %d %v\n", r.ID, r.Server, r.Submit, r.Start, r.Finish,
			r.EnergyShareJ, r.CO2Grams, r.Preemptions, r.EarnedUSD)
	}
	for _, r := range res.Rejections {
		fmt.Fprintf(h, "rej %d %v\n", r.ID, r.At)
	}
	if res.SLA != nil {
		fmt.Fprintf(h, "%v\n", *res.SLA)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fmtList(xs []float64, format string) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(format, x)
	}
	return s + "]"
}
