package core

import (
	"context"
	"errors"
	"testing"

	"toplists/internal/traffic"
)

func lifecycleCfg(seed uint64) Config {
	return Config{Seed: seed, NumSites: 300, NumClients: 60, Days: 3, Workers: 2}
}

// cancelOnDay cancels a context when the engine begins a given day, which
// aborts that day mid-flight: the cancellation is observed inside the
// shard loop, after the pre-start context check.
type cancelOnDay struct {
	traffic.BaseSink
	day    int
	cancel context.CancelFunc
}

func (c cancelOnDay) BeginDay(day int, weekend bool) {
	if day == c.day {
		c.cancel()
	}
}

// abortedStudy returns a study latched by a mid-day cancellation of day 1
// (day 0 completed cleanly).
func abortedStudy(t *testing.T) *Study {
	t.Helper()
	s := NewStudy(lifecycleCfg(17))
	ctx, cancel := context.WithCancel(context.Background())
	s.Engine.AddSink(cancelOnDay{day: 1, cancel: cancel})
	if err := s.AdvanceDay(ctx); err != nil {
		t.Fatalf("day 0 advancement failed: %v", err)
	}
	if err := s.AdvanceDay(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-day cancel returned %v, want context.Canceled", err)
	}
	return s
}

// TestStudyAbortSticky is the cancellation-trap satellite: a mid-day
// failure leaves the sinks torn, so every later lifecycle call must
// return the sticky ErrStudyAborted instead of silently re-running the
// engine over half-advanced state. The first caller still sees the
// original error (asserted in abortedStudy); only retries get the wrapper.
func TestStudyAbortSticky(t *testing.T) {
	s := abortedStudy(t)
	defer s.Close()

	if err := s.Aborted(); !errors.Is(err, ErrStudyAborted) {
		t.Fatalf("Aborted() = %v, want ErrStudyAborted", err)
	}
	if err := s.AdvanceDay(context.Background()); !errors.Is(err, ErrStudyAborted) {
		t.Fatalf("AdvanceDay after abort: %v, want ErrStudyAborted", err)
	}
	if err := s.RunContext(context.Background()); !errors.Is(err, ErrStudyAborted) {
		t.Fatalf("RunContext after abort: %v, want ErrStudyAborted", err)
	}
	if got := s.Day(); got != 1 {
		t.Fatalf("aborted study advanced to day %d, want stuck at 1", got)
	}
}

// TestPreStartCancelDoesNotLatch: a cancellation observed before a day
// begins leaves the study consistent at its boundary, so clearing the
// cancellation lets the run continue — only torn days latch.
func TestPreStartCancelDoesNotLatch(t *testing.T) {
	s := NewStudy(lifecycleCfg(29))
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AdvanceDay(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled AdvanceDay: %v, want context.Canceled", err)
	}
	if err := s.Aborted(); err != nil {
		t.Fatalf("pre-start cancel latched the study: %v", err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatalf("run after cleared cancellation: %v", err)
	}
	if got := s.Day(); got != s.Cfg.Days {
		t.Fatalf("study at day %d after full run, want %d", got, s.Cfg.Days)
	}
}

// TestAdvanceDayLifecycle: days advance one at a time, the last
// advancement finalizes (CrUX published, Lists servable), and advancing a
// finished study reports traffic.ErrRunComplete.
func TestAdvanceDayLifecycle(t *testing.T) {
	s := NewStudy(lifecycleCfg(41))
	defer s.Close()
	for d := 0; d < s.Cfg.Days; d++ {
		if got := s.Day(); got != d {
			t.Fatalf("Day() = %d before advancing day %d", got, d)
		}
		if err := s.AdvanceDay(context.Background()); err != nil {
			t.Fatalf("AdvanceDay(%d): %v", d, err)
		}
	}
	if err := s.AdvanceDay(context.Background()); !errors.Is(err, traffic.ErrRunComplete) {
		t.Fatalf("AdvanceDay past end: %v, want ErrRunComplete", err)
	}
	if s.Crux == nil {
		t.Fatal("final advancement did not derive CrUX")
	}
	if got := len(s.Lists()); got != 7 {
		t.Fatalf("finalized study serves %d lists, want 7", got)
	}
	// RunContext on the finished study is a no-op, not a re-run.
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatalf("RunContext on finished study: %v", err)
	}
}

// TestRankingFor: the day-scoped reader serves exactly the advanced days
// and rejects everything else by name or day.
func TestRankingFor(t *testing.T) {
	s := NewStudy(lifecycleCfg(53))
	defer s.Close()
	if _, err := s.RankingFor("Alexa", 0); err == nil {
		t.Fatal("RankingFor served day 0 before any advancement")
	}
	if err := s.AdvanceDay(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.ListNames() {
		r, err := s.RankingFor(name, 0)
		if err != nil {
			t.Fatalf("RankingFor(%s, 0): %v", name, err)
		}
		if r == nil {
			t.Fatalf("RankingFor(%s, 0): nil ranking", name)
		}
	}
	if _, err := s.RankingFor("Alexa", 1); err == nil {
		t.Fatal("RankingFor served the in-progress day")
	}
	if _, err := s.RankingFor("Alexa", -1); err == nil {
		t.Fatal("RankingFor served day -1")
	}
	if _, err := s.RankingFor("NoSuchList", 0); err == nil {
		t.Fatal("RankingFor served an unknown list")
	}
}

// TestCloseIdempotent is the Close-safety satellite: Close twice is fine,
// and the virtual network cannot be silently restarted afterwards — the
// probe path reports ErrStudyClosed instead.
func TestCloseIdempotent(t *testing.T) {
	s := NewStudy(lifecycleCfg(67))
	s.Run()
	if _, err := s.network(); err != nil {
		t.Fatalf("network() before Close: %v", err)
	}
	s.Close()
	s.Close() // must not panic or re-open
	if _, err := s.network(); !errors.Is(err, ErrStudyClosed) {
		t.Fatalf("network() after Close: %v, want ErrStudyClosed", err)
	}
	if _, err := s.newProber(); !errors.Is(err, ErrStudyClosed) {
		t.Fatalf("newProber() after Close: %v, want ErrStudyClosed", err)
	}
}

// TestStudyRecordsSimulatePhase: studies advance day by day through
// Engine.AdvanceDay, so a default study's report carries phase.simulate
// once per simulated day, alongside the other study-build phases.
func TestStudyRecordsSimulatePhase(t *testing.T) {
	s := NewStudy(lifecycleCfg(23))
	defer s.Close()
	s.Run()
	phases := s.Metrics().Snapshot().Phases
	want := map[string]int64{
		"phase.build_world": 1,
		"phase.simulate":    int64(s.Cfg.Days),
		"phase.amalgam":     int64(s.Cfg.Days),
	}
	for name, n := range want {
		p, ok := phases[name]
		if !ok {
			t.Errorf("report has no %s phase", name)
			continue
		}
		if p.Count != n {
			t.Errorf("%s Count = %d, want %d", name, p.Count, n)
		}
		if p.TotalNS <= 0 {
			t.Errorf("%s recorded no time", name)
		}
	}
}
