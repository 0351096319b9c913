package traffic

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"toplists/internal/simrand"
)

// observeShardSkew records each shard's wall time and updates the
// worst-imbalance gauge: the percentage by which the slowest shard of the
// day exceeded the mean shard. All volatile — scheduling decides these.
func (e *Engine) observeShardSkew(shardNS []int64) {
	if len(shardNS) == 0 {
		return
	}
	var sum, slowest int64
	for _, ns := range shardNS {
		e.metrics.shardTime.Observe(time.Duration(ns))
		sum += ns
		if ns > slowest {
			slowest = ns
		}
	}
	if mean := sum / int64(len(shardNS)); mean > 0 {
		e.metrics.skewPctMax.Max(100 * (slowest - mean) / mean)
	}
}

// Event kind tags for dayBuffer.kinds.
const (
	evPageLoad uint8 = iota
	evDNSQuery
)

// dayBuffer records, in emission order, the events one logical shard
// produced for the plain sinks. Events are stored by value in per-kind
// slices; kinds preserves the interleaving so replay reproduces the call
// order of direct dispatch. Buffers are reused across days to keep
// steady-state allocations flat.
type dayBuffer struct {
	kinds   []uint8
	loads   []PageLoad
	queries []DNSQuery
}

func (b *dayBuffer) reset() {
	b.kinds = b.kinds[:0]
	b.loads = b.loads[:0]
	b.queries = b.queries[:0]
}

// replay feeds the buffered events to the sinks in emission order.
func (b *dayBuffer) replay(sinks []Sink) {
	li, qi := 0, 0
	for _, k := range b.kinds {
		switch k {
		case evPageLoad:
			pl := &b.loads[li]
			li++
			for _, s := range sinks {
				s.OnPageLoad(pl)
			}
		default:
			q := &b.queries[qi]
			qi++
			for _, s := range sinks {
				s.OnDNSQuery(q)
			}
		}
	}
}

// shardOut is where simulateClientDay emits events and per-site human
// request counts for one logical shard. Every event folds into the shard's
// states (sketch mode's bounded accumulators) at once; plain sinks get it
// directly when buf is nil (one worker), or through buf for the barrier's
// replay.
type shardOut struct {
	sinks     []Sink
	buf       *dayBuffer
	humanReqs []int32
	states    []ShardState

	// nLoads and nQueries count this shard's events locally (plain fields,
	// no atomics), flushed to the shared counters once per shard: the per-
	// event cost of telemetry is two register increments, and the flushed
	// totals are identical at every worker count.
	nLoads, nQueries int64
}

// flushCounts adds the shard's event tallies to the engine counters and
// zeroes them for reuse.
func (o *shardOut) flushCounts(m *engineMetrics) {
	m.pageLoads.Add(o.nLoads)
	m.dnsQueries.Add(o.nQueries)
	o.nLoads, o.nQueries = 0, 0
}

func (o *shardOut) pageLoad(pl *PageLoad) {
	o.nLoads++
	for _, st := range o.states {
		st.OnPageLoad(pl)
	}
	if o.buf != nil {
		o.buf.kinds = append(o.buf.kinds, evPageLoad)
		o.buf.loads = append(o.buf.loads, *pl)
		return
	}
	for _, s := range o.sinks {
		s.OnPageLoad(pl)
	}
}

func (o *shardOut) dnsQuery(q *DNSQuery) {
	o.nQueries++
	for _, st := range o.states {
		st.OnDNSQuery(q)
	}
	if o.buf != nil {
		o.buf.kinds = append(o.buf.kinds, evDNSQuery)
		o.buf.queries = append(o.buf.queries, *q)
		return
	}
	for _, s := range o.sinks {
		s.OnDNSQuery(q)
	}
}

// shardRange is a half-open range [Lo, Hi) of client indices.
type shardRange struct {
	Lo, Hi int
}

// shardRanges splits n clients into at most k contiguous ranges of
// near-equal size (the first n%k ranges are one larger). Only non-empty
// ranges are returned.
func shardRanges(n, k int) []shardRange {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]shardRange, 0, k)
	size, rem := n/k, n%k
	lo := 0
	for w := 0; w < k; w++ {
		hi := lo + size
		if w < rem {
			hi++
		}
		out = append(out, shardRange{lo, hi})
		lo = hi
	}
	return out
}

// workerCount resolves the configured Workers knob for the current
// population: 0 means one worker per available CPU, and the count never
// exceeds the number of clients (a worker with no clients is pointless).
func (e *Engine) workerCount() int {
	nw := e.Cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > len(e.Clients) {
		nw = len(e.Clients)
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// ShardPanicError reports a panic recovered inside one client shard: which
// logical shard (an index into the day's fixed shards, not a worker), which
// clients it covered, the panic value, and the stack at the panic site. It
// propagates through RunContext instead of crashing the whole run.
type ShardPanicError struct {
	Day, Shard int
	// Lo, Hi is the shard's half-open client range.
	Lo, Hi int
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("traffic: day %d shard %d (clients [%d,%d)) panicked: %v\n%s",
		e.Day, e.Shard, e.Lo, e.Hi, e.Value, e.Stack)
}

// simulateShard runs one logical shard's contiguous client range,
// converting a panic into a *ShardPanicError and polling ctx between
// clients.
func (e *Engine) simulateShard(ctx context.Context, shard, d int, weekend bool,
	daySrc *simrand.Source, sc *clientScratch, out *shardOut, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &ShardPanicError{Day: d, Shard: shard, Lo: lo, Hi: hi, Value: v, Stack: debug.Stack()}
		}
	}()
	for i := lo; i < hi; i++ {
		if (i-lo)%64 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if e.testHook != nil {
			e.testHook(i, d)
		}
		e.simulateClientDay(&e.Clients[i], d, weekend, daySrc.At(i), sc, out)
	}
	return nil
}
