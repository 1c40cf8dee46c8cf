package sim

import (
	"testing"

	"greensched/internal/carbon"
	"greensched/internal/golden"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// This file pins the module stack against golden digests recorded from
// a legacy-style Config driving every one-slot hook (Carbon, SLA,
// Preemption, PolicyFunc, OnFinish, OnControl): the explicit module
// spelling of the same scenario must reproduce that Result and the
// completion order its OnFinish hook saw, byte for byte.

// compatProfile builds a small two-site grid.
func compatProfile() *carbon.Profile {
	solar := carbon.SiteProfile{Site: "solar", Signal: carbon.Diurnal{
		MeanG: 300, AmplitudeG: 250, CleanHour: 13, RenewableMin: 0.1, RenewableMax: 0.8,
	}}
	fossil := carbon.SiteProfile{Site: "fossil", Signal: carbon.Diurnal{
		MeanG: 450, AmplitudeG: 50, CleanHour: 13,
	}}
	p := carbon.MustProfile(solar)
	if err := p.SetCluster("sagittaire", fossil); err != nil {
		panic(err)
	}
	return p
}

// compatTasks mixes deferrable batch with deadline-carrying urgent
// work so admission, EDF queues, deadline-aware wrapping and the
// preemption path all run.
func compatTasks(t *testing.T) []workload.Task {
	t.Helper()
	batch, err := workload.BurstThenRate{Total: 16, Burst: 8, Rate: 0.02, Ops: 9e11, Class: sla.ClassBatch}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := workload.BurstThenRate{Total: 10, Burst: 0, Rate: 0.01, Ops: 9e10,
		Class: sla.ClassInteractive, RelDeadline: 120}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	return workload.Merge(batch, workload.Shift(urgent, 30))
}

// compatController is a deterministic stand-in power manager: it wakes
// dark capacity for unplaced backlog and sheds nodes idle past a fixed
// timeout. Fresh state per run.
func compatController() func(now float64, ctl Control) {
	return func(now float64, ctl Control) {
		nodes := ctl.Nodes()
		if ctl.Unplaced() > 0 {
			for _, n := range nodes {
				if !n.State.Usable() {
					_ = ctl.PowerOn(n.Name)
					break
				}
			}
		}
		on := 0
		for _, n := range nodes {
			if n.State == power.On {
				on++
			}
		}
		for _, n := range nodes {
			if on <= 1 {
				break
			}
			if n.State == power.On && n.Running == 0 && n.Queued == 0 && n.Idle > 90 {
				if ctl.PowerOff(n.Name) == nil {
					on--
				}
			}
		}
	}
}

// deadlineWrap builds a per-task deadline-aware policy from the
// catalog, ignoring the stack's base.
func deadlineWrap(base sched.Policy, catalog sla.Catalog) func(float64, workload.Task) sched.Policy {
	return func(now float64, t workload.Task) sched.Policy {
		terms := catalog.Resolve(t)
		if terms.Deadline <= 0 {
			return base
		}
		return sched.DeadlineAware{Base: base, Ops: t.Ops, Now: now, Deadline: terms.Deadline}
	}
}

func compatSLAConfig() *sla.Config {
	return &sla.Config{
		Catalog:      sla.DefaultCatalog(),
		Admission:    &sla.Admission{Margin: 1},
		Order:        sched.NewOrder(sched.EDF),
		UrgentBypass: true,
	}
}

// moduleConfig spells the scenario as an explicit stack, in the order
// the legacy one-slot fields were converted in: Carbon, SLA,
// Preemption, PolicyFunc, OnFinish, OnControl.
func moduleConfig(t *testing.T, onFinish func(TaskRecord)) Config {
	base := sched.New(sched.GreenPerf)
	wrap := deadlineWrap(base, sla.DefaultCatalog())
	return NewScenario(smallPlatform(), compatTasks(t),
		WithPolicy(base),
		WithExplore(),
		WithSeed(9),
		WithSlotsPerNode(1),
		WithTick(30),
		WithRetryEvery(15),
		WithModules(
			&CarbonModule{Profile: compatProfile()},
			&SLAModule{Config: compatSLAConfig()},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
			&HookModule{WrapPolicyFunc: func(now float64, task workload.Task, _ sched.Policy) sched.Policy {
				return wrap(now, task)
			}},
			&HookModule{OnFinishFunc: onFinish},
			&HookModule{OnTickFunc: compatController()},
		),
	)
}

// TestLegacyConfigMatchesModuleStack: the module stack reproduces the
// Result and completion order recorded from the legacy config.
func TestLegacyConfigMatchesModuleStack(t *testing.T) {
	var seen []int
	res, err := Run(moduleConfig(t, func(rec TaskRecord) { seen = append(seen, rec.ID) }))
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "compat.sha256", golden.Digest(t, res))
	golden.Check(t, "compat-onfinish.sha256", golden.Digest(t, seen))
	// The scenario must actually have exercised the whole surface.
	if res.CO2Grams <= 0 {
		t.Error("scenario never integrated emissions")
	}
	if res.SLA == nil || res.SLA.Completed == 0 {
		t.Error("scenario never ran the ledger")
	}
	if res.Boots == 0 && res.Shutdowns == 0 {
		t.Error("scenario never exercised the controller")
	}
}
