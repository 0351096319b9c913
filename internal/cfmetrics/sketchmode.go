package cfmetrics

import (
	"math"
	"sync"
	"sync/atomic"

	"toplists/internal/sketch"
	"toplists/internal/traffic"
)

// Sketch mode. With SetSketch the pipeline stops keeping exact per-site
// state and aggregates through bounded mergeable summaries instead: each
// logical traffic shard accumulates, per tracked combo, a space-saving
// candidate set plus a count-min frequency sketch (count aggregations) or a
// space-saving set with per-candidate HLLs (unique aggregations). The day
// barrier merges shard summaries in canonical order; bot batches accumulate
// in a dedicated summary that EndDay merges last, so every summary's adds
// precede its merges and the space-saving N/k bounds hold.
//
// The barrier work itself — the shard merges and the ranking — runs in
// EndDay, one task per combo: combos own disjoint summaries, so each task
// merges its combo's shard states in ascending shard order, then the bot
// state, then ranks, and the tasks may run concurrently (EndDayWorkers).
// MergeShard only queues the state, which the engine leaves untouched
// until EndDay returns.
//
// The published day list is the merged candidate set ranked by
// min(space-saving count, count-min estimate) — both are overestimates, so
// the minimum is the tighter one and is exact whenever the summaries never
// evicted — or by the per-candidate HLL estimate rounded to an integer, so
// small-count ties re-form exactly as on the exact path and the shared
// deterministic tiebreak applies to the same groups.

// pipelineShard is the bounded accumulation state for one (logical shard,
// pipeline) pair, and doubles as the pipeline's own day/bot state.
type pipelineShard struct {
	p   *Pipeline
	ss  []*sketch.SpaceSaving  // per combo, count aggregations
	cm  []*sketch.CountMin     // per combo, count aggregations
	tkd []*sketch.TopKDistinct // per combo, unique aggregations
}

func (p *Pipeline) newPipelineShard() *pipelineShard {
	sh := &pipelineShard{
		p:   p,
		ss:  make([]*sketch.SpaceSaving, len(p.combos)),
		cm:  make([]*sketch.CountMin, len(p.combos)),
		tkd: make([]*sketch.TopKDistinct, len(p.combos)),
	}
	for i, c := range p.combos {
		if c.Agg == AggCount {
			sh.ss[i] = p.sk.NewTopK()
			sh.cm[i] = p.sk.NewCountMin()
		} else {
			sh.tkd[i] = p.sk.NewTopKDistinct()
		}
	}
	return sh
}

// OnPageLoad implements traffic.ShardState.
func (sh *pipelineShard) OnPageLoad(pl *traffic.PageLoad) {
	if !sh.p.observes[pl.Site] || !sh.p.seesPage(pl) {
		return
	}
	site := uint64(uint32(pl.Site))
	for i, c := range sh.p.combos {
		n := filterContribution(c.Filter, pl)
		if n <= 0 {
			continue
		}
		switch c.Agg {
		case AggCount:
			sh.ss[i].Add(site, uint64(n))
			sh.cm[i].Add(site, uint64(n))
		case AggUniqueIP:
			sh.tkd[i].Add(site, uint64(pl.IP))
		default:
			sh.tkd[i].Add(site, ipua(pl.IP, pl.Client.UA))
		}
	}
}

// OnDNSQuery implements traffic.ShardState; the log pipeline sees HTTP
// traffic only.
func (sh *pipelineShard) OnDNSQuery(*traffic.DNSQuery) {}

// onBotBatch folds a bot batch into the shard, mirroring the exact path's
// contribution rules.
func (sh *pipelineShard) onBotBatch(bb *traffic.BotBatch) {
	if !sh.p.observes[bb.Site] || !sh.p.seesBot(bb) {
		return
	}
	site := uint64(uint32(bb.Site))
	for i, c := range sh.p.combos {
		n := botContribution(c.Filter, bb)
		if n <= 0 {
			continue
		}
		switch c.Agg {
		case AggCount:
			sh.ss[i].Add(site, uint64(n))
			sh.cm[i].Add(site, uint64(n))
		default:
			k := len(bb.IPs) * n / bb.Requests
			if k < 1 {
				k = 1
			}
			for _, ip := range bb.IPs[:k] {
				key := uint64(ip)
				if c.Agg == AggUniqueIPUA {
					key = ipua(ip, botUA)
				}
				sh.tkd[i].Add(site, key)
			}
		}
	}
}

// mergeCombo folds another shard's summaries of combo i into this one.
func (sh *pipelineShard) mergeCombo(i int, o *pipelineShard) {
	if sh.ss[i] != nil {
		sh.ss[i].Merge(o.ss[i], nil)
		sh.cm[i].Merge(o.cm[i])
	} else {
		sh.tkd[i].Merge(o.tkd[i])
	}
}

// Reset implements traffic.ShardState.
func (sh *pipelineShard) Reset() {
	for i := range sh.p.combos {
		if sh.ss[i] != nil {
			sh.ss[i].Reset()
			sh.cm[i].Reset()
		} else {
			sh.tkd[i].Reset()
		}
	}
}

// memBytes returns the shard's logical footprint.
func (sh *pipelineShard) memBytes() int {
	var n int
	for i := range sh.p.combos {
		if sh.ss[i] != nil {
			n += sh.ss[i].MemBytes() + sh.cm[i].MemBytes()
		} else {
			n += sh.tkd[i].MemBytes()
		}
	}
	return n
}

// SetSketch switches the pipeline to sketch-backed aggregation. Must be
// called before the simulation starts; the exact per-site state is released.
func (p *Pipeline) SetSketch(cfg sketch.Config) {
	if !cfg.Enabled {
		return
	}
	p.sk = cfg.WithDefaults()
	p.counts = nil
	p.distinct = nil
	p.dayState = p.newPipelineShard()
	p.botState = p.newPipelineShard()
}

// NewShardState implements traffic.ShardedSink.
func (p *Pipeline) NewShardState() traffic.ShardState {
	return p.newPipelineShard()
}

// MergeShard implements traffic.ShardedSink: queue one logical shard's
// summaries for the day's barrier. Called in ascending shard order.
func (p *Pipeline) MergeShard(st traffic.ShardState) {
	sh := st.(*pipelineShard)
	p.shardMem += sh.memBytes()
	p.pending = append(p.pending, sh)
}

// EndDayWorkers implements traffic.ParallelBarrierSink: EndDay, with the
// sketch-mode barrier fanned out over up to workers goroutines.
func (p *Pipeline) EndDayWorkers(day, workers int) {
	if !p.sk.Enabled {
		p.EndDay(day)
		return
	}
	p.endDaySketch(workers)
}

// endDaySketch merges the queued shard summaries and freezes the day's
// ranked lists, one combo per task on up to workers goroutines. Every
// combo merges in the same order at any width, and rankScored's order is
// total, so the lists do not depend on workers.
func (p *Pipeline) endDaySketch(workers int) {
	lists := make([][]int32, len(p.combos))
	bounds := make([]uint64, len(p.combos))
	forEachIndex(len(p.combos), workers, func(i int) {
		lists[i], bounds[i] = p.closeCombo(i)
	})
	for _, b := range bounds {
		p.errBound = max(p.errBound, b)
	}
	p.days = append(p.days, lists)

	if m := p.shardMem + p.dayState.memBytes() + p.botState.memBytes(); m > p.memPeak {
		p.memPeak = m
	}
	p.shardMem = 0
	clear(p.pending)
	p.pending = p.pending[:0]
	p.dayState.Reset()
	p.botState.Reset()
}

// closeCombo merges combo i's queued shard summaries and then its bot
// summary into the day state, and ranks the result. It returns the ranked
// list and, for count aggregations, the merged count-min error bound. It
// touches only combo i's summaries.
func (p *Pipeline) closeCombo(i int) ([]int32, uint64) {
	ds := p.dayState
	for _, sh := range p.pending {
		ds.mergeCombo(i, sh)
	}
	ds.mergeCombo(i, p.botState)

	var scored []scoredSite
	if p.combos[i].Agg == AggCount {
		for _, e := range ds.ss[i].Entries(nil) {
			v := e.Count
			if est := ds.cm[i].Estimate(e.Key); est < v {
				v = est
			}
			if v > 0 {
				scored = append(scored, scoredSite{int32(uint32(e.Key)), float64(v)})
			}
		}
		return rankScored(scored), ds.cm[i].ErrorBound()
	}
	for _, e := range ds.tkd[i].Entries(nil) {
		// Round the distinct estimate so equal-true-count tie groups
		// re-form and the shared tiebreak orders them exactly as the
		// exact path would.
		if v := math.Round(ds.tkd[i].DistinctAt(e.Slot)); v > 0 {
			scored = append(scored, scoredSite{int32(uint32(e.Key)), v})
		}
	}
	return rankScored(scored), 0
}

// forEachIndex calls fn(i) for every i in [0, n) on up to workers
// goroutines, pulling indices from a shared counter; with workers <= 1 it
// calls them in order on the caller's goroutine. A panic in fn is re-raised
// on the caller's goroutine after every task has stopped.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &v)
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if v := panicked.Load(); v != nil {
		panic(*v)
	}
}

// SketchMemPeak returns the high-water logical footprint of all sketch
// state that met at a day barrier (shard states at merge time plus the
// day and bot summaries). A pure function of the configuration and seed,
// safe for deterministic gauges.
func (p *Pipeline) SketchMemPeak() int { return p.memPeak }

// SketchErrorBound returns the largest count-min error bound (ceil(e·N/w))
// any day's merged frequency sketch reached.
func (p *Pipeline) SketchErrorBound() uint64 { return p.errBound }
