package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"greensched/internal/experiments"
)

// Run from this directory: go test .

func TestGeneratorsFollowTheSeed(t *testing.T) {
	cfg := experiments.DefaultComposedConfig()
	cfg.ScaleTasks(composedTaskCount)
	gens := map[string]func(seed int64) any{
		"backlog":  func(seed int64) any { return backlogTasks(seed, 3000, 256, backlogRate, backlogOps) },
		"composed": func(seed int64) any { return composedTasks(seed, cfg) },
		"poisson":  func(seed int64) any { return poissonArrivals(seed, 1500, 2) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	got := len(poissonArrivals(3, 2000, 5))
	if got < 9500 || got > 10500 {
		t.Fatalf("2000 req/s for 5 s gave %d arrivals", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1010)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 1000 {
		t.Fatalf("p99 of 1..1010 = %v, %v; want 1000 with 10 beyond", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) was not refused")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was not refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples was not refused")
	}
}

func TestCoveredCountsParallelCallsOnce(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond) }
	outer := interval{at(0), at(100)}
	calls := []interval{{at(10), at(40)}, {at(20), at(50)}, {at(60), at(70)}, {at(90), at(120)}}
	if got := covered(outer, calls); got != 60 {
		t.Fatalf("covered = %v us, want 60 (10-50, 60-70, 90-100)", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}
