package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Schema identifies the run-report JSON layout. Bump the version when a
// field changes meaning or moves section; adding a new metric name is not a
// schema change.
//
// Layout (all sections use lexically sorted metric names):
//
//	schema    string             this constant
//	meta      map[string]string  run parameters (seed, sizes, flags); free-form
//	counters  map[string]int64   deterministic counts: identical for a given
//	                             (seed, config) at every worker count
//	gauges    map[string]int64   deterministic point-in-time values
//	volatile  map[string]int64   counts/values that may vary across worker
//	                             counts or runs (pool widths, wait events)
//	durations map[string]DurationStats  wall-clock histograms
//	phases    map[string]PhaseStats     span timings per run phase
//
// The deterministic subset — schema, counters, gauges — is what
// Report.Deterministic marshals and what `make obscheck` pins byte-for-byte
// across worker counts.
const Schema = "toplists-run-report/v1"

// Report is one registry snapshot, shaped for JSON (see Schema).
type Report struct {
	Schema    string                   `json:"schema"`
	Meta      map[string]string        `json:"meta,omitempty"`
	Counters  map[string]int64         `json:"counters"`
	Gauges    map[string]int64         `json:"gauges"`
	Volatile  map[string]int64         `json:"volatile,omitempty"`
	Durations map[string]DurationStats `json:"durations,omitempty"`
	Phases    map[string]PhaseStats    `json:"phases,omitempty"`
}

// DurationStats summarizes one histogram. Quantiles are log2 bucket upper
// bounds clamped to [MinNS, MaxNS]: for positive durations each is at most
// a factor of two above the true quantile.
type DurationStats struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	P50NS   int64 `json:"p50_ns"`
	P90NS   int64 `json:"p90_ns"`
	P99NS   int64 `json:"p99_ns"`
}

// PhaseStats summarizes one phase's spans. P50/P99 are log2 bucket upper
// bounds clamped to MaxNS, with the same factor-of-two error as
// DurationStats.
type PhaseStats struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
	P50NS   int64 `json:"p50_ns"`
	P99NS   int64 `json:"p99_ns"`
}

// Snapshot captures the registry's current state. Safe on nil (returns an
// empty, schema-stamped report) and safe to call while metrics are still
// being written — each value is read atomically, though cross-metric
// consistency is only guaranteed once the run has quiesced.
func (r *Registry) Snapshot() *Report {
	rep := &Report{
		Schema:    Schema,
		Counters:  map[string]int64{},
		Gauges:    map[string]int64{},
		Volatile:  map[string]int64{},
		Durations: map[string]DurationStats{},
		Phases:    map[string]PhaseStats{},
	}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]gaugeFn, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	phases := make(map[string]*Phase, len(r.phases))
	for k, v := range r.phases {
		phases[k] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		if c.volatile {
			rep.Volatile[name] = c.Value()
		} else {
			rep.Counters[name] = c.Value()
		}
	}
	for name, g := range gauges {
		if g.volatile {
			rep.Volatile[name] = g.Value()
		} else {
			rep.Gauges[name] = g.Value()
		}
	}
	for name, gf := range gaugeFns {
		if gf.volatile {
			rep.Volatile[name] = gf.fn()
		} else {
			rep.Gauges[name] = gf.fn()
		}
	}
	for name, h := range hists {
		if h.Count() == 0 {
			continue
		}
		rep.Durations[name] = DurationStats{
			Count:   h.count.Load(),
			TotalNS: h.sum.Load(),
			MinNS:   h.min.Load(),
			MaxNS:   h.max.Load(),
			P50NS:   h.quantile(0.50),
			P90NS:   h.quantile(0.90),
			P99NS:   h.quantile(0.99),
		}
	}
	for name, p := range phases {
		if p.count.Load() == 0 {
			continue
		}
		rep.Phases[name] = PhaseStats{
			Count:   p.count.Load(),
			TotalNS: p.totalNS.Load(),
			MaxNS:   p.maxNS.Load(),
			P50NS:   p.quantile(0.50),
			P99NS:   p.quantile(0.99),
		}
	}
	return rep
}

// Deterministic marshals the report's deterministic subset — schema,
// counters, and non-volatile gauges — as indented JSON. encoding/json
// writes map keys in sorted order, so for a fixed (seed, config) these
// bytes are identical at every worker count; the obscheck oracle compares
// them directly.
func (rep *Report) Deterministic() ([]byte, error) {
	sub := struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}{rep.Schema, rep.Counters, rep.Gauges}
	return json.MarshalIndent(sub, "", "  ")
}

// ResumeStable marshals the subset of the deterministic report that is
// additionally invariant under checkpoint/restore: a study resumed at day
// k and advanced to the end must produce these bytes identically to a
// straight run. Two deterministic families are excluded by name prefix:
// "artifacts." (cache hit/miss tallies depend on which computations the
// lifecycle path already performed — a resumed run re-normalizes window
// inputs a straight run had warm) and "sketch." (memory peaks depend on
// pool and shard capacity history that checkpoints deliberately do not
// carry). Both remain pure functions of (seed, config, lifecycle path)
// and stay in Deterministic.
func (rep *Report) ResumeStable() ([]byte, error) {
	stable := func(m map[string]int64) map[string]int64 {
		out := make(map[string]int64, len(m))
		for k, v := range m {
			if strings.HasPrefix(k, "artifacts.") || strings.HasPrefix(k, "sketch.") {
				continue
			}
			out[k] = v
		}
		return out
	}
	sub := struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}{rep.Schema, stable(rep.Counters), stable(rep.Gauges)}
	return json.MarshalIndent(sub, "", "  ")
}

// WriteJSON writes the full report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteSummary renders the report as an aligned human-readable table: run
// phases first (the "where did the wall time go" view), then durations,
// then deterministic counts and gauges, then volatile values. Intended for
// stderr at run end; never stdout, which stays a pure paper transcript.
func (rep *Report) WriteSummary(w io.Writer) error {
	if len(rep.Phases) > 0 {
		fmt.Fprintf(w, "--- run phases ---\n")
		var total int64
		for _, p := range rep.Phases {
			total += p.TotalNS
		}
		for _, name := range sortedKeys(rep.Phases) {
			p := rep.Phases[name]
			fmt.Fprintf(w, "%-34s %10s  x%-5d p50 %-9s p99 %-9s max %-10s %4.1f%%\n",
				name, fmtNS(p.TotalNS), p.Count, fmtNS(p.P50NS), fmtNS(p.P99NS), fmtNS(p.MaxNS),
				100*float64(p.TotalNS)/float64(max64(total, 1)))
		}
	}
	if len(rep.Durations) > 0 {
		fmt.Fprintf(w, "--- durations ---\n")
		for _, name := range sortedKeys(rep.Durations) {
			d := rep.Durations[name]
			fmt.Fprintf(w, "%-34s %10s  x%-7d p50 %-9s p99 %-9s max %s\n",
				name, fmtNS(d.TotalNS), d.Count, fmtNS(d.P50NS), fmtNS(d.P99NS), fmtNS(d.MaxNS))
		}
	}
	if len(rep.Counters) > 0 || len(rep.Gauges) > 0 {
		fmt.Fprintf(w, "--- counters (deterministic) ---\n")
		for _, name := range sortedKeys(rep.Counters) {
			fmt.Fprintf(w, "%-42s %12d\n", name, rep.Counters[name])
		}
		for _, name := range sortedKeys(rep.Gauges) {
			fmt.Fprintf(w, "%-42s %12d\n", name, rep.Gauges[name])
		}
	}
	if len(rep.Volatile) > 0 {
		fmt.Fprintf(w, "--- volatile ---\n")
		for _, name := range sortedKeys(rep.Volatile) {
			fmt.Fprintf(w, "%-42s %12d\n", name, rep.Volatile[name])
		}
	}
	return nil
}

// fmtNS renders nanoseconds with time.Duration's formatting, rounded to
// keep the table narrow.
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		d = d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		d = d.Round(10 * time.Microsecond)
	default:
		d = d.Round(10 * time.Nanosecond)
	}
	return d.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
