package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// A tampered digest must count as a failed check, whether it breaks the
// agreement between a run's units or the pin at the default seed.
func TestTamperedDigestIsAFailure(t *testing.T) {
	w, err := lookupWorkload("paper-exact")
	if err != nil {
		t.Fatal(err)
	}
	good := w.digest
	tampered := "0" + good[1:]
	if good == tampered {
		tampered = "1" + good[1:]
	}
	if msgs := digestFailures(w, defaultSeed, []string{good, good}); len(msgs) != 0 {
		t.Fatalf("matching pinned digests reported failures: %v", msgs)
	}
	if msgs := digestFailures(w, defaultSeed, []string{good, tampered}); len(msgs) != 1 {
		t.Fatalf("a tampered second digest gave %d failures, want 1: %v", len(msgs), msgs)
	}
	if msgs := digestFailures(w, defaultSeed, []string{tampered, tampered}); len(msgs) != 2 {
		t.Fatalf("tampered digests at the pinned seed gave %d failures, want 2: %v", len(msgs), msgs)
	}
	// Away from the default seed only agreement is checked.
	if msgs := digestFailures(w, defaultSeed+1, []string{tampered, tampered}); len(msgs) != 0 {
		t.Fatalf("agreeing digests at another seed reported failures: %v", msgs)
	}
	if msgs := digestFailures(w, defaultSeed+1, []string{tampered, good}); len(msgs) != 1 {
		t.Fatalf("disagreeing digests at another seed gave %d failures, want 1: %v", len(msgs), msgs)
	}

	// The failure reaches the result line: correct is false and failed
	// counts it.
	b := &bench{w: w, seed: defaultSeed, digests: []string{good, tampered}}
	for _, msg := range digestFailures(w, b.seed, b.digests) {
		b.fail(msg)
	}
	if b.failed != 1 {
		t.Fatalf("bench counted %d failures, want 1", b.failed)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 0.5); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
	// A quantile never exceeds the largest sample.
	if v, beyond := percentile([]float64{3, 1, 2}, 0.99); v != 3 || beyond != 0 {
		t.Fatalf("p99 of {1,2,3} = %v with %d beyond, want 3 with 0", v, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
