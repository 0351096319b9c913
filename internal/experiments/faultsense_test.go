package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"toplists/internal/core"
)

// TestFaultSenseRecovery pins the robustness acceptance numbers: under a
// 5% injected fault rate the hardened prober recovers at least 99% of the
// truly Cloudflare-served hosts with no false positives, while the
// single-shot baseline visibly misclassifies.
func TestFaultSenseRecovery(t *testing.T) {
	s := getStudy(t)
	res, err := RunFaultSense(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*FaultSenseResult)
	renderOK(t, r)

	clean, ok := r.RowAt(0)
	if !ok {
		t.Fatal("no rate-0 row")
	}
	for name, c := range map[string]FaultSenseCell{"naive": clean.Naive, "resilient": clean.Resilient} {
		if c.Missed != 0 || c.False != 0 || c.Jaccard != 1 {
			t.Errorf("rate 0 %s prober not perfect: %+v", name, c)
		}
	}
	if d := clean.Resilient.EvalJaccard - r.TruthEvalJaccard; d != 0 {
		t.Errorf("rate 0 eval drift %v, want 0", d)
	}

	row, ok := r.RowAt(0.05)
	if !ok {
		t.Fatal("no 5% row")
	}
	if rec := r.Recovery(row.Resilient); rec < 0.99 {
		t.Errorf("resilient recovery %.4f at 5%% faults, want >= 0.99 (missed %d of %d)",
			rec, row.Resilient.Missed, r.TruthCF)
	}
	if row.Resilient.False != 0 {
		t.Errorf("resilient prober fabricated %d Cloudflare hosts", row.Resilient.False)
	}
	if row.Naive.Missed <= row.Resilient.Missed {
		t.Errorf("single-shot missed %d, resilient %d: baseline should degrade more",
			row.Naive.Missed, row.Resilient.Missed)
	}
	if row.Naive.Missed == 0 {
		t.Error("single-shot prober lost nothing at 5% faults; the ablation shows no contrast")
	}

	worst, ok := r.RowAt(0.20)
	if !ok {
		t.Fatal("no 20% row")
	}
	if r.Recovery(worst.Resilient) <= r.Recovery(worst.Naive) {
		t.Errorf("at 20%% faults resilient recovery %.4f not above naive %.4f",
			r.Recovery(worst.Resilient), r.Recovery(worst.Naive))
	}
}

// TestFaultSenseDeterministic: the sweep is a pure function of the study
// seed — two runs render byte-identically.
func TestFaultSenseDeterministic(t *testing.T) {
	s := getStudy(t)
	render := func() string {
		res, err := RunFaultSense(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("two faultsense sweeps over one study rendered differently")
	}
}

// TestRunConcurrentPanicRunner: a panicking experiment is reported in its
// outcome slot as a *PanicError; the rest of the pool completes.
func TestRunConcurrentPanicRunner(t *testing.T) {
	runners := []Runner{
		{"ok-a", "fine", func(ctx context.Context, s *core.Study) (Result, error) { return SurveyResult{}, nil }},
		{"boom", "panics", func(ctx context.Context, s *core.Study) (Result, error) { panic("experiment exploded") }},
		{"ok-b", "fine", func(ctx context.Context, s *core.Study) (Result, error) { return SurveyResult{}, nil }},
	}
	// The runners never touch the study, so none is needed.
	for _, workers := range []int{1, 3} {
		out := RunConcurrent(context.Background(), nil, runners, workers)
		var pe *PanicError
		if !errors.As(out[1].Err, &pe) {
			t.Fatalf("workers=%d: boom outcome err %v, want *PanicError", workers, out[1].Err)
		}
		if pe.ID != "boom" || pe.Value != "experiment exploded" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error incomplete: id=%s value=%v stack=%d bytes",
				workers, pe.ID, pe.Value, len(pe.Stack))
		}
		if out[0].Err != nil || out[2].Err != nil {
			t.Errorf("workers=%d: healthy runners failed: %v, %v", workers, out[0].Err, out[2].Err)
		}
	}
}

// TestRunConcurrentCanceled: a pre-canceled context fails every outcome
// with the context's error without running anything.
func TestRunConcurrentCanceled(t *testing.T) {
	ran := false
	runners := []Runner{
		{"x", "x", func(ctx context.Context, s *core.Study) (Result, error) { ran = true; return SurveyResult{}, nil }},
		{"y", "y", func(ctx context.Context, s *core.Study) (Result, error) { ran = true; return SurveyResult{}, nil }},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, oc := range RunConcurrent(ctx, nil, runners, 1) {
		if !errors.Is(oc.Err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", oc.Runner.ID, oc.Err)
		}
	}
	if ran {
		t.Error("a runner executed under a pre-canceled context")
	}
}

// TestFaultSenseTableArms: the arms faultsense serves from the study's
// probe table — the resilient arm at the study's fault rate, and the
// naive arm too when that rate is 0 — equal a real single-shot and a real
// resilient sweep on a fresh network at the same rate.
func TestFaultSenseTableArms(t *testing.T) {
	for _, studyRate := range []float64{0, 0.05} {
		s := core.NewStudy(core.Config{Seed: 31, NumSites: 900, NumClients: 150, Days: 2, FaultRate: studyRate})
		s.Run()
		defer s.Close()
		res, err := RunFaultSense(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*FaultSenseResult)
		row, ok := r.RowAt(studyRate)
		if !ok {
			t.Fatalf("study rate %v: no row", studyRate)
		}
		// The served arms went through the study's own sweep, once.
		if got := s.Metrics().Snapshot().Counters["probe.probes"]; got != int64(r.Hosts) {
			t.Errorf("study rate %v: the study probed %d hosts, want the %d faultsense hosts",
				studyRate, got, r.Hosts)
		}

		truth := make(map[string]struct{})
		hosts := make([]string, r.Hosts)
		for i := range hosts {
			site := s.World.Site(int32(i))
			hosts[i] = site.Domain
			if site.Cloudflare() {
				truth[site.Domain] = struct{}{}
			}
		}
		n := faultSenseNetwork(s, studyRate)
		defer n.Close()
		for _, arm := range []struct {
			name       string
			singleShot bool
			got        FaultSenseCell
		}{{"single-shot", true, row.Naive}, {"resilient", false, row.Resilient}} {
			cf, err := probeCFSet(context.Background(), n, hosts, arm.singleShot)
			if err != nil {
				t.Fatal(err)
			}
			want := scoreCFSet(cf, truth)
			got := arm.got
			got.EvalJaccard = 0
			if got != want {
				t.Errorf("study rate %v, %s arm: %+v, probed on a fresh network %+v",
					studyRate, arm.name, got, want)
			}
		}
	}
}
