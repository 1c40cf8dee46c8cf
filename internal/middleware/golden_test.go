package middleware

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"greensched/internal/estvec"
	"greensched/internal/golden"
	"greensched/internal/sched"
)

// This file pins the SED interceptor stack against golden tables
// recorded from the legacy one-slot SEDConfig fields (Meter, Carbon,
// Estimation): the explicit interceptor spelling must reproduce the
// recorded estimation tags and the server every policy elects.

// goldenPolicies are the policies whose election on the golden pair is
// a function of the deterministic tags alone (PERFORMANCE ranks on
// wall-clock flops between equal-speed SEDs, RANDOM on a draw shared
// with concurrent fan-out).
var goldenPolicies = []sched.Kind{sched.Power, sched.GreenPerf, sched.Carbon, sched.LeastLoaded, sched.Renewable}

// goldenTags are the estimation tags that do not depend on wall-clock
// timing after priming.
var goldenTags = []estvec.Tag{
	estvec.TagPowerW, estvec.TagCarbonIntensity, estvec.TagFreeCores,
	estvec.TagQueueLen, estvec.TagActive, estvec.TagKnown, estvec.TagRequests,
}

// goldenPair builds the golden two-SED deployment on the interceptor
// stack. The SEDs oppose power and carbon (lean grid, hungry node vs
// dirty grid, lean node) so different policies elect different servers
// — a stack that drops a tag flips an election here.
func goldenPair(t *testing.T) map[string]*SED {
	t.Helper()
	specs := []struct {
		name   string
		watts  float64
		carbon float64
	}{
		{"greedy-clean", 300, 100},
		{"frugal-dirty", 90, 500},
	}
	seds := make(map[string]*SED)
	for _, spec := range specs {
		watts, g := spec.watts, spec.carbon
		sed, err := NewSED(SEDConfig{Name: spec.name, Slots: 2, Interceptors: []Interceptor{
			&MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
			&CarbonInterceptor{Func: func() (float64, bool) { return g, true }},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sed.Register(burnService(2e9)); err != nil {
			t.Fatal(err)
		}
		seds[spec.name] = sed
	}
	return seds
}

// electionTable primes the pair and renders its deterministic tags and
// every golden policy's elected server as a JSON table.
func electionTable(t *testing.T, seds map[string]*SED) string {
	t.Helper()
	prime(t, seds)
	table := make(map[string]string)
	req := Request{Service: "burn", Ops: 1e7}
	for name, sed := range seds {
		// Constant meters make the learned power exact.
		table["learned_power_w/"+name] = fmt.Sprint(sed.Stats().PowerW)
		v, err := sed.Estimate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range goldenTags {
			table[fmt.Sprintf("tag/%s/%s", name, tag)] = fmt.Sprint(v[0].Value(tag, -1))
		}
	}
	for _, kind := range goldenPolicies {
		ma, err := NewMasterAgent("ma", sched.New(kind))
		if err != nil {
			t.Fatal(err)
		}
		ma.Attach(seds["greedy-clean"], seds["frugal-dirty"])
		SeedRand(7)
		server, _, err := ma.Elect(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		table["elect/"+string(kind)] = server
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLegacySEDConfigMatchesInterceptorStack: after identical priming,
// the interceptor stack reproduces the recorded estimation tags and
// elections of the legacy config.
func TestLegacySEDConfigMatchesInterceptorStack(t *testing.T) {
	golden.Check(t, "elections.json", electionTable(t, goldenPair(t)))
}

// TestLegacyEstimationMatchesEstimationInterceptor: a fully custom
// estimation function mounted as an EstimationInterceptor above a
// carbon feed reproduces the recorded vector, which carries no carbon
// tag — the custom function replaces everything below it in the chain.
func TestLegacyEstimationMatchesEstimationInterceptor(t *testing.T) {
	custom := func(s *SED, req Request) *estvec.Vector {
		return estvec.New(s.Name()).
			Set(estvec.Tag("rack_temp_c"), 21).
			Set(estvec.TagFlops, 3e9).
			SetBool(estvec.TagActive, true)
	}
	sed, err := NewSED(SEDConfig{Name: "custom", Slots: 1, Interceptors: []Interceptor{
		&CarbonInterceptor{Func: func() (float64, bool) { return 400, true }},
		&EstimationInterceptor{Estimate: custom},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(burnService(2e9)); err != nil {
		t.Fatal(err)
	}
	v, err := sed.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "custom-estimation.txt", v[0].String())
	if v[0].Has(estvec.TagCarbonIntensity) {
		t.Error("estimation override must suppress the carbon tag")
	}
}
