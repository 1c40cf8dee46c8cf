package main

import (
	"math/rand"

	"greensched/internal/core"
	"greensched/internal/experiments"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// Every input the program sees is generated here from the --seed
// argument: the same seed gives the same tasks and the same request
// schedule, and the program receives only the generated values.

// prefRange is the effective Preference_user range of the paper's
// Eq. 2 (the clamp the paper imposes on [-1, 1]).
const prefRange = 0.9

func drawPref(rng *rand.Rand) core.UserPref {
	return core.UserPref((2*rng.Float64() - 1) * prefRange)
}

// jitter scales v by a uniform factor in [1-spread, 1+spread].
func jitter(rng *rand.Rand, v, spread float64) float64 {
	return v * (1 - spread + 2*spread*rng.Float64())
}

// backlogTasks is the sim-backlog input: burst tasks at t=0, then
// Poisson arrivals at rate until n tasks, each with a seeded size and
// preference. Arrivals outpace the platform, so the backlog keeps
// growing for the whole run.
func backlogTasks(seed int64, n, burst int, rate, meanOps float64) []workload.Task {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]workload.Task, n)
	at := 0.0
	for i := range tasks {
		if i >= burst {
			at += rng.ExpFloat64() / rate
		}
		tasks[i] = workload.Task{ID: i, Submit: at, Ops: jitter(rng, meanOps, 0.5), Pref: drawPref(rng)}
	}
	return tasks
}

// composedTasks is the sim-composed input: the four streams of the
// composed study's evening mix (batch burst, Poisson deadline and
// interactive streams, a hopeless burst admission must refuse), with
// the stream sizes of cfg and seeded arrival times and sizes.
func composedTasks(seed int64, cfg experiments.ComposedConfig) []workload.Task {
	rng := rand.New(rand.NewSource(seed))
	s := cfg.SLA
	start := s.StartHour * 3600
	burst := func(n int, ops float64, class string, rel float64) []workload.Task {
		out := make([]workload.Task, n)
		for i := range out {
			out[i] = workload.Task{Submit: start, Ops: jitter(rng, ops, 0.2), Pref: drawPref(rng), Class: class}
			if rel > 0 {
				out[i].Deadline = start + rel
			}
		}
		return out
	}
	stream := func(n int, every, ops float64, class string, rel float64) []workload.Task {
		out := make([]workload.Task, n)
		at := start
		for i := range out {
			at += rng.ExpFloat64() * every
			out[i] = workload.Task{Submit: at, Ops: jitter(rng, ops, 0.2), Pref: drawPref(rng), Class: class, Deadline: at + rel}
		}
		return out
	}
	return workload.Merge(
		burst(s.BatchTasks, s.BatchOps, sla.ClassBatch, 0),
		stream(s.DeadlineTasks, s.DeadlineEvery, s.DeadlineOps, sla.ClassDeadline, s.DeadlineRelSec),
		stream(s.InteractiveTasks, s.InteractiveEvery, s.InteractiveOps, sla.ClassInteractive, cfg.InteractiveRelSec),
		burst(s.HopelessTasks, s.DeadlineOps, sla.ClassDeadline, s.HopelessRelSec),
	)
}

// arrival is one live request of an open-loop schedule: due at offset
// At seconds from the phase start.
type arrival struct {
	At   float64
	Ops  float64
	Pref core.UserPref
}

// liveOpsMean is the mean request size. Services return instantly, so
// the size only shapes the SEDs' wait estimates.
const liveOpsMean = 1e9

// poissonArrivals is an open-loop schedule: Poisson arrivals at rate
// per second for dur seconds. Independent DIET clients do not wait for
// each other, so nothing in the schedule depends on response times.
func poissonArrivals(seed int64, rate, dur float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for at := rng.ExpFloat64() / rate; at < dur; at += rng.ExpFloat64() / rate {
		out = append(out, arrival{At: at, Ops: jitter(rng, liveOpsMean, 0.5), Pref: drawPref(rng)})
	}
	return out
}
