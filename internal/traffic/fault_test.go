package traffic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"toplists/internal/world"
)

func panicTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	w := world.Generate(world.Config{Seed: 61, NumSites: 200})
	return NewEngine(w, Config{Seed: 61, NumClients: 200, Days: 2, Workers: workers})
}

// TestShardPanicBecomesError is the panic-recovery satellite: a panicking
// client simulation surfaces as a *ShardPanicError naming the shard and
// carrying the stack, from both a single worker and a parallel pool,
// instead of crashing the run. The shard is a logical shard, so its index
// is bounded by the logical shard count, not by the worker count.
func TestShardPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := panicTestEngine(t, workers)
		e.testHook = func(client, day int) {
			if client == 137 && day == 1 {
				panic("injected client panic")
			}
		}
		err := e.RunContext(context.Background())
		var spe *ShardPanicError
		if !errors.As(err, &spe) {
			t.Fatalf("workers=%d: RunContext error %v, want *ShardPanicError", workers, err)
		}
		if spe.Day != 1 || spe.Lo > 137 || spe.Hi <= 137 {
			t.Errorf("workers=%d: panic located at day %d clients [%d,%d), want day 1 covering client 137",
				workers, spe.Day, spe.Lo, spe.Hi)
		}
		if spe.Value != "injected client panic" {
			t.Errorf("workers=%d: panic value %v", workers, spe.Value)
		}
		if !strings.Contains(string(spe.Stack), "simulateShard") {
			t.Errorf("workers=%d: stack does not reach the shard body:\n%s", workers, spe.Stack)
		}
		if n := e.Cfg.Sketch.WithDefaults().Shards; spe.Shard < 0 || spe.Shard >= n {
			t.Errorf("workers=%d: shard index %d outside the %d logical shards", workers, spe.Shard, n)
		}
	}
}

// TestRunPanicsWithoutContext: the legacy Run entry point preserves its
// crash-on-panic contract.
func TestRunPanicsWithoutContext(t *testing.T) {
	e := panicTestEngine(t, 2)
	e.testHook = func(client, day int) {
		if client == 3 {
			panic("boom")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run swallowed the shard panic")
		}
	}()
	e.Run()
}

// TestRunContextCancel: canceling mid-run stops promptly with the context
// error and skips the remaining days.
func TestRunContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := panicTestEngine(t, workers)
		ctx, cancel := context.WithCancel(context.Background())
		var began int
		e.AddSink(countingSink{days: &began})
		e.testHook = func(client, day int) {
			if day == 0 && client == 100 {
				cancel()
			}
		}
		start := time.Now()
		err := e.RunContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: RunContext error %v, want context.Canceled", workers, err)
		}
		if began > 1 {
			t.Errorf("workers=%d: %d days began after day-0 cancel", workers, began)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("workers=%d: cancel took %v to take effect", workers, elapsed)
		}
	}
}

// TestPreCanceledContext: a context canceled before the run begins stops
// before any sink sees a day.
func TestPreCanceledContext(t *testing.T) {
	e := panicTestEngine(t, 2)
	var began int
	e.AddSink(countingSink{days: &began})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error %v, want context.Canceled", err)
	}
	if began != 0 {
		t.Errorf("%d days began under a pre-canceled context", began)
	}
}

// countingSink counts BeginDay calls.
type countingSink struct {
	BaseSink
	days *int
}

func (s countingSink) BeginDay(d int, weekend bool) { *s.days++ }
