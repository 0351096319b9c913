package toplists

import (
	"strings"
	"testing"

	"toplists/internal/obs"
)

// TestObsDeterminism is the oracle behind `make obscheck`: telemetry must
// never perturb study output, and every count-valued metric must be a pure
// function of (seed, config). Concretely, across worker counts 4, 1, and
// auto (0):
//
//  1. the full rendered evaluation stays byte-identical (instrumentation
//     cannot leak into results), and
//  2. the run report's deterministic subset — schema, counters, gauges —
//     is byte-identical (scheduling cannot leak into the counts).
//
// Timing-valued metrics (durations, phases, queue waits) and the
// explicitly Volatile counters are excluded from the subset by
// Report.Deterministic, which is exactly what makes this test possible.
//
// The same must hold with a Tracer attached: tracing is observation, not
// behavior, so a traced run at any worker count renders byte-identically
// to the untraced workers=4 baseline and carries the same deterministic
// subset — while actually recording events (an empty trace would make
// the "tracing is free" claim vacuous).
func TestObsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three full studies")
	}
	cfg := Config{Seed: 11, Sites: 900, Clients: 250, Days: 3, FaultRate: 0.05}
	type runOut struct {
		render string
		det    string
	}
	run := func(workers int, traced bool) runOut {
		c := cfg
		c.Workers = workers
		var tracer *obs.Tracer
		if traced {
			reg := obs.NewRegistry()
			tracer = obs.NewTracer(0)
			reg.SetTracer(tracer)
			c.Obs = reg
		}
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var b strings.Builder
		if err := s.RenderAll(&b); err != nil {
			t.Fatal(err)
		}
		if traced && tracer.Len() == 0 {
			t.Errorf("workers=%d: attached tracer recorded no events", workers)
		}
		det, err := s.Metrics().Snapshot().Deterministic()
		if err != nil {
			t.Fatal(err)
		}
		return runOut{render: b.String(), det: string(det)}
	}

	base := run(4, false)
	// The subset must actually carry the instrumented counts — an
	// accidentally empty report would pass the comparison below vacuously.
	for _, key := range []string{
		"engine.events.pageload", "artifacts.norm.misses",
		"probe.attempts", "artifacts.probe.misses", "faults.injected.", "eval.completed",
		"names.interned",
	} {
		if !strings.Contains(base.det, key) {
			t.Errorf("deterministic report subset is missing %q:\n%s", key, base.det)
		}
	}

	for _, variant := range []struct {
		workers int
		traced  bool
	}{
		{1, false}, {0, false},
		{4, true}, {1, true}, {0, true},
	} {
		got := run(variant.workers, variant.traced)
		if got.render != base.render {
			t.Errorf("rendered output differs between workers=4 and workers=%d traced=%v (lens %d vs %d)",
				variant.workers, variant.traced, len(base.render), len(got.render))
		}
		if got.det != base.det {
			t.Errorf("deterministic report subset differs between workers=4 and workers=%d traced=%v:\n%s",
				variant.workers, variant.traced, firstDiffLine(base.det, got.det))
		}
	}
}

// firstDiffLine locates the first line where two reports diverge, for a
// readable failure message.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " != " + bl[i]
		}
	}
	return "one report is a prefix of the other"
}
