// Golden digests: every seeded sim scenario and every sim-substrate
// study reproduces the SHA-256 of its json.Marshal(Result) recorded
// under testdata/golden. The digests were recorded from the seed
// scheduling kernel and the deprecated one-slot Config spellings, and
// the event-heap kernel and the module spellings were asserted to
// reproduce them before those paths were deleted. If a change ever
// moves an election, a wait estimate, a virtual timestamp or a ledger
// entry, these tests fail before any figure drifts. Run
// `go test -update . ./internal/sim ./internal/middleware` only for a
// change that alters results on purpose.
package greensched

import (
	"fmt"
	"testing"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/core"
	"greensched/internal/experiments"
	"greensched/internal/golden"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// equivTasks builds a seeded burst-then-rate workload.
func equivTasks(t *testing.T, n int, burst int, rate float64) []workload.Task {
	t.Helper()
	tasks, err := workload.BurstThenRate{Total: n, Burst: burst, Rate: rate, Ops: 9e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// equivProfile is a two-site grid so carbon tags and emissions differ
// across clusters.
func equivProfile() *carbon.Profile {
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

// equivConfigs enumerates the seeded scenarios the golden digests
// pin. Each entry rebuilds its config (and any stateful modules) fresh
// per run.
func equivConfigs(t *testing.T) map[string]func(seed int64) sim.Config {
	t.Helper()
	return map[string]func(seed int64) sim.Config{
		"placement-greenperf": func(seed int64) sim.Config {
			return sim.Config{
				Platform:    cluster.PaperPlatform(),
				Policy:      sched.New(sched.GreenPerf),
				Tasks:       equivTasks(t, 400, 64, 4),
				Explore:     true,
				Seed:        seed,
				ExecJitter:  0.05,
				Contention:  0.2,
				MeterNoiseW: 3,
				SampleEvery: 30,
			}
		},
		"random-policy": func(seed int64) sim.Config {
			return sim.Config{
				Platform: cluster.PaperPlatform(),
				Policy:   sched.New(sched.Random),
				Tasks:    equivTasks(t, 300, 32, 8),
				Seed:     seed,
			}
		},
		"crash-recovery": func(seed int64) sim.Config {
			plat := cluster.MustPlatform(cluster.NewNodes("taurus", 3), cluster.NewNodes("sagittaire", 3))
			return sim.Config{
				Platform:   plat,
				Policy:     sched.New(sched.Power),
				Tasks:      equivTasks(t, 200, 48, 2),
				Explore:    true,
				Seed:       seed,
				ExecJitter: 0.1,
				Crashes: map[string]float64{
					plat.Nodes[1].Name: 40,
					plat.Nodes[4].Name: 95,
				},
			}
		},
		"composed-stack": func(seed int64) sim.Config {
			profile := equivProfile()
			tracker, err := budget.NewTracker(4e8, 6*3600)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := workload.BurstThenRate{Total: 32, Burst: 16, Rate: 0.02, Ops: 9e11, Class: sla.ClassBatch}.Tasks()
			if err != nil {
				t.Fatal(err)
			}
			urgent, err := workload.BurstThenRate{Total: 16, Burst: 0, Rate: 0.01, Ops: 9e10,
				Class: sla.ClassInteractive, RelDeadline: 150}.Tasks()
			if err != nil {
				t.Fatal(err)
			}
			return sim.NewScenario(
				cluster.MustPlatform(cluster.NewNodes("taurus", 3), cluster.NewNodes("sagittaire", 3)),
				workload.Merge(batch, workload.Shift(urgent, 60)),
				sim.WithPolicy(sched.New(sched.Carbon)),
				sim.WithExplore(),
				sim.WithSeed(seed),
				sim.WithSlotsPerNode(1),
				sim.WithTick(300),
				sim.WithRetryEvery(510),
				sim.WithModules(
					&sim.CarbonModule{Profile: profile},
					&budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone},
					&sim.SLAModule{
						Config: &sla.Config{
							Catalog:      sla.DefaultCatalog(),
							Admission:    &sla.Admission{Margin: 1},
							Order:        sched.NewOrder(sched.EDF),
							UrgentBypass: true,
						},
						WrapDeadline: true,
					},
					&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
					&consolidation.Module{Controller: &consolidation.CarbonController{
						Profile:     profile,
						CleanG:      350,
						DirtyG:      500,
						IdleTimeout: 600,
						MinOn:       1,
						MaxDeferSec: 4 * 3600,
					}},
				),
			)
		},
	}
}

// goldenSeeds are the seeds every equivConfigs scenario replays at.
var goldenSeeds = []int64{1, 2, 3}

// TestEventKernelMatchesLegacyKernel: every scenario reproduces the
// digest the seed kernel recorded, at every golden seed.
func TestEventKernelMatchesLegacyKernel(t *testing.T) {
	for name, build := range equivConfigs(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range goldenSeeds {
				res, err := sim.Run(build(seed))
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed == 0 {
					t.Fatalf("seed %d: scenario completed nothing; the digest is vacuous", seed)
				}
				golden.Check(t, fmt.Sprintf("%s-seed%d.sha256", name, seed), golden.Digest(t, res))
			}
		})
	}
}

// TestComposedStackExercisesAllModules guards against the composed
// scenario silently degenerating: emissions, the ledger and the
// controller must all have fired.
func TestComposedStackExercisesAllModules(t *testing.T) {
	res, err := sim.Run(equivConfigs(t)["composed-stack"](goldenSeeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.CO2Grams <= 0 {
		t.Error("no emissions integrated")
	}
	if res.SLA == nil || res.SLA.Completed == 0 {
		t.Error("ledger never ran")
	}
	if res.Boots+res.Shutdowns == 0 {
		t.Error("controller never acted")
	}
}

// slaStudyDigestInput runs the SLA study and returns it in a form JSON
// can carry: GramsPerUSD is +Inf for a run that earned nothing, so it
// is pinned as text beside the result.
func slaStudyDigestInput() (any, error) {
	res, err := experiments.RunSLAStudy(experiments.DefaultSLAConfig())
	if err != nil {
		return nil, err
	}
	perUSD := make([]string, len(res.Runs))
	for i := range res.Runs {
		perUSD[i] = fmt.Sprint(res.Runs[i].GramsPerUSD)
		res.Runs[i].GramsPerUSD = 0
	}
	return struct {
		Result      *experiments.SLAResult
		GramsPerUSD []string
	}{res, perUSD}, nil
}

// TestStudiesMatchGolden: every sim-substrate study, at the size its
// own tests run it, reproduces its recorded result digest.
func TestStudiesMatchGolden(t *testing.T) {
	consolidationCfg := experiments.DefaultConsolidationConfig()
	consolidationCfg.Tasks = 24
	consolidationCfg.GapSec = 1800
	studies := map[string]func() (any, error){
		"placement":     func() (any, error) { return experiments.RunPlacement(experiments.DefaultPlacementConfig()) },
		"consolidation": func() (any, error) { return experiments.RunConsolidation(consolidationCfg) },
		"preemption":    func() (any, error) { return experiments.RunPreemptionStudy(experiments.DefaultPreemptionConfig()) },
		"composed":      func() (any, error) { return experiments.RunComposedStudy(experiments.DefaultComposedConfig()) },
		"carbon":        func() (any, error) { return experiments.RunCarbonStudy(experiments.DefaultCarbonConfig()) },
		"sla":           slaStudyDigestInput,
		"adaptive":      func() (any, error) { return experiments.RunAdaptive(experiments.DefaultAdaptiveConfig()) },
	}
	for name, run := range studies {
		t.Run(name, func(t *testing.T) {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "study-"+name+".sha256", golden.Digest(t, res))
		})
	}
}
