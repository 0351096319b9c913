package traffic

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"toplists/internal/simrand"
)

// The day scheduler. The day's clients are split into a fixed number of
// LOGICAL shards, Cfg.Sketch.WithDefaults().Shards — a pure function of the
// population size, independent of the worker count and of the mode.
// Workers pull logical shards from a shared counter. In sketch mode each
// shard's events fold into bounded per-shard accumulators (one ShardState
// per ShardedSink); every other sink is plain and sees the exact event
// stream. With one worker the shards run in ascending order and plain
// sinks get their events directly; with more, each shard buffers them for
// replay. The day barrier then hands the shards to the sinks in ascending
// logical-shard order — a canonical order, so sink contents are
// byte-identical whether one worker processed all shards or eight workers
// raced through them. Per-client RNG streams are derived by index
// (daySrc.At(i)), never shared, so no shard's draws depend on another's.

// logicalShard is the reusable per-day state of one logical shard.
type logicalShard struct {
	scratch   *clientScratch
	states    []ShardState // parallel to Engine.shardedSinks
	buf       dayBuffer    // events for plain sinks when workers run in parallel
	humanReqs []int32
}

// splitSinks partitions the registered sinks once: in sketch mode sharded
// sinks aggregate through ShardStates; every other sink is plain. This is
// the only place the engine looks at the mode.
func (e *Engine) splitSinks() {
	if e.sinksSplit {
		return
	}
	e.sinksSplit = true
	for _, s := range e.sinks {
		if ss, ok := s.(ShardedSink); ok && e.Cfg.Sketch.Enabled {
			e.shardedSinks = append(e.shardedSinks, ss)
		} else {
			e.plainSinks = append(e.plainSinks, s)
		}
	}
}

// ensureLogical lazily builds (and retains across days) n logical shards.
func (e *Engine) ensureLogical(n int) {
	for len(e.logical) < n {
		ls := &logicalShard{
			scratch:   newClientScratch(),
			humanReqs: make([]int32, e.W.NumSites()),
		}
		for _, ss := range e.shardedSinks {
			ls.states = append(ls.states, ss.NewShardState())
		}
		e.logical = append(e.logical, ls)
	}
}

// runDayClients simulates the day's clients over the fixed logical shards.
// nw bounds the number of concurrent workers; every value of nw produces
// byte-identical sink contents. On error (a canceled context or a
// panicked shard) the first failing shard's error — in shard order, which
// is deterministic — is returned. The barrier (mergeShards, the day's
// bots, EndDay, resetShards) follows in runDay.
func (e *Engine) runDayClients(ctx context.Context, d int, weekend bool, daySrc *simrand.Source, nw int) error {
	e.splitSinks()
	shards := shardRanges(len(e.Clients), e.Cfg.Sketch.WithDefaults().Shards)
	e.ensureLogical(len(shards))
	nw = min(nw, len(shards))

	errs := make([]error, len(shards))
	shardNS := make([]int64, len(shards))
	runShard := func(si int) {
		ls := e.logical[si]
		ls.buf.reset()
		clear(ls.humanReqs)
		start := time.Now()
		out := shardOut{sinks: e.plainSinks, humanReqs: ls.humanReqs, states: ls.states}
		if nw > 1 && len(e.plainSinks) > 0 {
			out.buf = &ls.buf
		}
		errs[si] = e.simulateShard(ctx, si, d, weekend, daySrc, ls.scratch, &out, shards[si].Lo, shards[si].Hi)
		out.flushCounts(&e.metrics)
		dur := time.Since(start)
		shardNS[si] = int64(dur)
		e.metrics.tracer.Span("engine.shard", "engine", int64(si), start, dur)
	}
	if nw <= 1 {
		for si := range shards {
			runShard(si)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= len(shards) {
						return
					}
					runShard(si)
				}
			}()
		}
		wg.Wait()
	}
	e.observeShardSkew(shardNS)

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeShards is the first step of the day barrier: in ascending
// logical-shard order, hand each shard's states to the sharded sinks and
// replay its buffered events (none when one worker ran the day) into the
// plain sinks.
func (e *Engine) mergeShards() {
	for _, ls := range e.logical {
		for i, v := range ls.humanReqs {
			e.humanReqs[i] += v
		}
		for j, ss := range e.shardedSinks {
			ss.MergeShard(ls.states[j])
		}
		ls.buf.replay(e.plainSinks)
	}
}

// resetShards empties every shard state for the next day. It runs after
// every sink's EndDay, because sinks may fold the states in as late as
// EndDay (see ShardedSink.MergeShard).
func (e *Engine) resetShards() {
	for _, ls := range e.logical {
		for _, st := range ls.states {
			st.Reset()
		}
	}
}
