package perfgate

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

func baselineOf(meds map[string]int64) Baseline {
	b := Baseline{Schema: Schema, Benchmarks: map[string]Result{}}
	for name, ns := range meds {
		b.Benchmarks[name] = Result{Name: name, MedianNS: ns, Rounds: 5, Iters: 100}
	}
	return b
}

func resultsOf(meds map[string]int64) map[string]Result {
	out := map[string]Result{}
	for name, ns := range meds {
		out[name] = Result{Name: name, MedianNS: ns, Rounds: 5, Iters: 100}
	}
	return out
}

// TestCompareSyntheticRegression injects a 20% slowdown on one
// benchmark: the gate must fail, name the offender, and leave the
// within-threshold benchmarks alone. This is the acceptance-criterion
// proof that the gate can actually fire.
func TestCompareSyntheticRegression(t *testing.T) {
	base := baselineOf(map[string]int64{"a": 1000, "b": 2000, "c": 500})
	cur := resultsOf(map[string]int64{"a": 1200, "b": 2100, "c": 500}) // a: +20%, b: +5%
	deltas, ok := Compare(base, cur, DefaultThreshold)
	if ok {
		t.Fatal("gate passed a 20% regression")
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if byName["a"].Status != "regressed" {
		t.Errorf("a: status %q, want regressed", byName["a"].Status)
	}
	if byName["b"].Status != "ok" || byName["c"].Status != "ok" {
		t.Errorf("b/c flagged: %q %q", byName["b"].Status, byName["c"].Status)
	}
	if got := byName["a"].Frac; got < 0.19 || got > 0.21 {
		t.Errorf("a: delta %.3f, want ~0.20", got)
	}
}

// TestCompareImprovementAndBoundary: a big speedup passes (flagged
// "improved"), and a slowdown exactly at the threshold passes — the
// gate fires strictly beyond it.
func TestCompareImprovementAndBoundary(t *testing.T) {
	base := baselineOf(map[string]int64{"fast": 1000, "edge": 1000})
	cur := resultsOf(map[string]int64{"fast": 500, "edge": 1150})
	deltas, ok := Compare(base, cur, DefaultThreshold)
	if !ok {
		t.Fatal("gate failed on improvement + at-threshold slowdown")
	}
	for _, d := range deltas {
		switch d.Name {
		case "fast":
			if d.Status != "improved" {
				t.Errorf("fast: status %q, want improved", d.Status)
			}
		case "edge":
			if d.Status != "ok" {
				t.Errorf("edge: status %q, want ok (exactly at threshold)", d.Status)
			}
		}
	}
}

// TestCompareMissingAndNew: dropping a baselined benchmark fails the
// gate; an unbaselined newcomer only warns.
func TestCompareMissingAndNew(t *testing.T) {
	base := baselineOf(map[string]int64{"old": 1000})
	cur := resultsOf(map[string]int64{"new": 1000})
	deltas, ok := Compare(base, cur, DefaultThreshold)
	if ok {
		t.Fatal("gate passed with a missing benchmark")
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if byName["old"].Status != "missing" {
		t.Errorf("old: status %q, want missing", byName["old"].Status)
	}
	if byName["new"].Status != "new" {
		t.Errorf("new: status %q, want new", byName["new"].Status)
	}
	if _, ok := Compare(baselineOf(nil), cur, DefaultThreshold); !ok {
		t.Error("empty baseline must pass (everything is new)")
	}
}

// TestCompareRefRatioGating: when both sides carry reference ratios,
// the gate judges ratios, so a uniformly 2x-slower machine passes while
// a genuine +30% relative regression still fails. The reference row
// itself never gates.
func TestCompareRefRatioGating(t *testing.T) {
	base := Baseline{Schema: Schema, Benchmarks: map[string]Result{
		RefBenchmark: {Name: RefBenchmark, MedianNS: 100, RefRatio: 1},
		"a":          {Name: "a", MedianNS: 1000, RefRatio: 10},
		"b":          {Name: "b", MedianNS: 1000, RefRatio: 10},
	}}
	// Machine 2x slower (ref 100->200, raw medians more than doubled):
	// a's cost relative to the reference moved +5% (fine), b's +30%.
	cur := map[string]Result{
		RefBenchmark: {Name: RefBenchmark, MedianNS: 200, RefRatio: 1},
		"a":          {Name: "a", MedianNS: 2300, RefRatio: 10.5},
		"b":          {Name: "b", MedianNS: 2600, RefRatio: 13},
	}
	deltas, ok := Compare(base, cur, DefaultThreshold)
	if ok {
		t.Fatal("gate passed a +30% ratio regression")
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if byName["a"].Status != "ok" || byName["a"].Via != "ratio" {
		t.Errorf("a: status %q via %q, want ok via ratio (raw +130%% must not gate)",
			byName["a"].Status, byName["a"].Via)
	}
	if byName["b"].Status != "regressed" {
		t.Errorf("b: status %q, want regressed despite machine drift", byName["b"].Status)
	}
	if byName[RefBenchmark].Status != "ref" {
		t.Errorf("ref: status %q, want ref", byName[RefBenchmark].Status)
	}
}

// TestMeasureInterleavesRef: a list carrying RefBenchmark yields
// RefRatio on every result, and the ratio reflects relative cost. The
// rounds are long enough (the reference gets a quarter of MinRoundTime)
// that one scheduler preemption moves a round's ratio by well under 2x,
// and nine of them make the median survive a busy machine, such as a full
// parallel `go test ./...` on two CPUs.
func TestMeasureInterleavesRef(t *testing.T) {
	spin := func(units int) func(int) {
		return func(n int) {
			x := uint64(1)
			for i := 0; i < n*units; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sinkU64 = x
		}
	}
	res := Measure([]Benchmark{
		{Name: RefBenchmark, Setup: func() func(int) { return spin(1000) }},
		{Name: "heavy", Setup: func() func(int) { return spin(4000) }},
	}, MeasureOptions{Rounds: 9, MinRoundTime: 40 * time.Millisecond})
	if res[RefBenchmark].RefRatio != 1 {
		t.Errorf("ref ratio = %v, want 1", res[RefBenchmark].RefRatio)
	}
	got := res["heavy"].RefRatio
	if got < 2 || got > 8 {
		t.Errorf("heavy/ref ratio = %.2f, want ~4 (a 4x workload)", got)
	}
}

var sinkU64 uint64

// TestMeasureCalibrates: a fast op gets a large iteration count and a
// sane positive median; the measured op really ran.
func TestMeasureCalibrates(t *testing.T) {
	var ran int
	res := Measure([]Benchmark{{
		Name: "spin",
		Setup: func() func(int) {
			sink := 0
			return func(n int) {
				for i := 0; i < n; i++ {
					for j := 0; j < 100; j++ {
						sink += j
					}
					ran++
				}
			}
		},
	}}, MeasureOptions{Rounds: 3, MinRoundTime: 2 * time.Millisecond})
	r, ok := res["spin"]
	if !ok {
		t.Fatal("no result for spin")
	}
	if r.MedianNS <= 0 {
		t.Errorf("median %d, want > 0", r.MedianNS)
	}
	if r.Iters < 2 {
		t.Errorf("iters %d: calibration never scaled a ~100ns op", r.Iters)
	}
	if r.Rounds != 3 || ran < 3*r.Iters {
		t.Errorf("rounds %d ran %d, want 3 rounds x %d iters", r.Rounds, ran, r.Iters)
	}
}

// TestBaselineRoundTripAndSchema: WriteJSON→LoadBaseline round-trips,
// and a wrong-schema file is rejected.
func TestBaselineRoundTripAndSchema(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/base.json"
	want := baselineOf(map[string]int64{"x": 123})
	f := &bytes.Buffer{}
	if err := want.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if got.Benchmarks["x"].MedianNS != 123 {
		t.Errorf("round-trip median = %d", got.Benchmarks["x"].MedianNS)
	}

	bad := path + ".bad"
	if err := os.WriteFile(bad, []byte(`{"schema":"nope/v9","benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Error("LoadBaseline accepted a wrong schema")
	}
}

// TestDeltaTableNamesOffender: the human table carries the regressed
// benchmark's name and status so CI logs are actionable.
func TestDeltaTableNamesOffender(t *testing.T) {
	base := baselineOf(map[string]int64{"hot": 1000})
	cur := resultsOf(map[string]int64{"hot": 1300})
	deltas, ok := Compare(base, cur, DefaultThreshold)
	if ok {
		t.Fatal("30% slowdown passed")
	}
	var buf bytes.Buffer
	WriteDeltaTable(&buf, deltas, DefaultThreshold)
	out := buf.String()
	if !strings.Contains(out, "hot") || !strings.Contains(out, "regressed") {
		t.Errorf("table missing offender:\n%s", out)
	}
	if !strings.Contains(out, "+30.0%") {
		t.Errorf("table missing delta:\n%s", out)
	}
}

// TestSlackParsing: PERFGATE_SLACK widens the threshold; garbage and
// negatives are ignored.
func TestSlackParsing(t *testing.T) {
	t.Setenv("PERFGATE_SLACK", "0.25")
	if got := Slack(); got != 0.25 {
		t.Errorf("Slack() = %v, want 0.25", got)
	}
	t.Setenv("PERFGATE_SLACK", "banana")
	if got := Slack(); got != 0 {
		t.Errorf("Slack(banana) = %v, want 0", got)
	}
	t.Setenv("PERFGATE_SLACK", "-1")
	if got := Slack(); got != 0 {
		t.Errorf("Slack(-1) = %v, want 0", got)
	}

	// A +20% slowdown passes once slack covers it — the CI advisory mode.
	base := baselineOf(map[string]int64{"a": 1000})
	cur := resultsOf(map[string]int64{"a": 1200})
	t.Setenv("PERFGATE_SLACK", "0.10")
	if _, ok := Compare(base, cur, DefaultThreshold+Slack()); !ok {
		t.Error("slacked gate still failed a covered regression")
	}
}

// TestPinnedBenchmarksRun: every pinned benchmark's Setup and run(1)
// complete — the same smoke CI gets before trusting the gate. Kept tiny:
// correctness of the measured code is the owning packages' business.
func TestPinnedBenchmarksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned benchmark smoke is not short")
	}
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			run := b.Setup()
			run(1)
		})
	}
}
