package main

import (
	"strings"
	"time"

	"toplists/internal/core"
	"toplists/internal/obs"
	"toplists/internal/rank"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports every one; README.md defines each per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"build_s", "s"},
	{"eval_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"read_rps", "req/s"},
	{"advance_ms", "ms"},
	{"checkpoint_ms", "ms"},
	{"recovery_s", "s"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not exercise reports 0 (no probes on sim-sketch, no experiments
// on serve-mixed, no HTTP on the batch workloads).
var perLayer = []metricDef{
	{"world.build_s", "s"},
	{"traffic.day_ms.p50", "ms"},
	{"traffic.day_ms.max", "ms"},
	{"traffic.events", "count"},
	{"traffic.events_per_s", "1/s"},
	{"traffic.barrier_ms.p50", "ms"},
	{"traffic.shard_busy_share", "ratio"},
	{"traffic.alloc_mb_per_day", "MB"},
	{"sketch.mem_peak_mb", "MB"},
	{"providers.amalgam_ms.p50", "ms"},
	{"httpsim.probe_cf_s", "s"},
	{"httpsim.probes", "count"},
	{"httpsim.probes_per_site", "ratio"},
	{"httpsim.probe_rate", "1/s"},
	{"core.artifacts.hit_ratio", "ratio"},
	{"core.artifacts.misses", "count"},
	{"core.ranking_for_us", "us"},
	{"experiments.tab1_s", "s"},
	{"experiments.fig1_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.faultsense_s", "s"},
	{"experiments.rest_s", "s"},
	{"experiments.queue_wait_ms.max", "ms"},
	{"report.render_ms", "ms"},
	{"rank.names_us", "us"},
	{"rank.topset_us", "us"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.recover_s", "s"},
	{"toplistsd.handler_share", "ratio"},
	{"runtime.alloc_gb", "GiB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"obs.trace_overhead", "ratio"},
	{"unattributed_share", "ratio"},
	{"loadgen.late_ms.p99", "ms"},
}

// namedExperiments get their own experiments.<id>_s metric; every other
// experiment's time is summed into experiments.rest_s.
var namedExperiments = []string{"tab1", "fig1", "fig2", "fig3", "fig8", "faultsense"}

// trafficLayer derives the engine figures. Day time is AdvanceDay minus
// the amalgam update it includes. The barrier is the tail of each
// engine.day span after its last engine.shard span ended: replaying
// buffered events (exact) or merging shard sketches (sketch mode), bot
// traffic, and the sinks' end-of-day work. phase.simulate is not used: a
// study advanced through AdvanceDay never records it.
func trafficLayer(layers map[string]float64, events []obs.Event, rep *obs.Report, dayMS []float64, allocBytes uint64, days int) {
	workers := float64(max(rep.Volatile["engine.workers"], 1))
	var barrierMS []float64
	var busy, span float64
	for _, day := range events {
		if day.Name != "engine.day" {
			continue
		}
		end := day.TS + day.Dur
		lastShard := day.TS
		for _, sh := range events {
			if sh.Name == "engine.shard" && sh.TS >= day.TS && sh.TS+sh.Dur <= end {
				lastShard = max(lastShard, sh.TS+sh.Dur)
				busy += float64(sh.Dur)
			}
		}
		barrierMS = append(barrierMS, float64(end-lastShard)/1e6)
		span += float64(day.Dur) * workers
	}
	var evs int64
	for _, k := range []string{"pageload", "dnsquery", "botbatch"} {
		evs += rep.Counters["engine.events."+k]
	}
	layers["traffic.day_ms.p50"] = median(dayMS)
	layers["traffic.day_ms.max"] = maxOf(dayMS)
	layers["traffic.events"] = float64(evs)
	if t := sum(dayMS) / 1e3; t > 0 {
		layers["traffic.events_per_s"] = float64(evs) / t
	}
	layers["traffic.barrier_ms.p50"] = median(barrierMS)
	if span > 0 {
		layers["traffic.shard_busy_share"] = busy / span
	}
	layers["traffic.alloc_mb_per_day"] = float64(allocBytes) / (1 << 20) / float64(days)
}

// sketchLayer sums the sketch footprint gauges (absent in exact mode).
func sketchLayer(layers map[string]float64, rep *obs.Report) {
	var b int64
	for k, v := range rep.Gauges {
		if strings.HasPrefix(k, "sketch.") && strings.HasSuffix(k, ".mem_peak_bytes") {
			b += v
		}
	}
	layers["sketch.mem_peak_mb"] = float64(b) / (1 << 20)
}

// probeLayer reads the prober's counters: every probe of every sweep
// (ProbeCF, Table 1's coverage sweep, faultsense's arms).
func probeLayer(layers map[string]float64, rep *obs.Report, sites int) {
	probes := float64(rep.Counters["probe.probes"])
	layers["httpsim.probes"] = probes
	layers["httpsim.probes_per_site"] = probes / float64(sites)
	if t := time.Duration(rep.Phases["phase.probe_sweep"].TotalNS).Seconds(); t > 0 {
		layers["httpsim.probe_rate"] = probes / t
	}
}

// artifactLayer sums the memo counters of every artifact family.
func artifactLayer(layers map[string]float64, rep *obs.Report) {
	var hits, misses int64
	for k, v := range rep.Counters {
		if !strings.HasPrefix(k, "artifacts.") {
			continue
		}
		switch {
		case strings.HasSuffix(k, ".hits"):
			hits += v
		case strings.HasSuffix(k, ".misses"):
			misses += v
		}
	}
	layers["core.artifacts.misses"] = float64(misses)
	if hits+misses > 0 {
		layers["core.artifacts.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}

// experimentLayer reads each experiment's eval.<id> phase span and the
// evaluation pool's queue-wait spans off the timeline.
func experimentLayer(layers map[string]float64, events []obs.Event) {
	for _, id := range namedExperiments {
		layers["experiments."+id+"_s"] = 0
	}
	var rest, waitMax float64
	for _, ev := range events {
		switch {
		case strings.HasPrefix(ev.Name, "eval.queue_wait."):
			waitMax = max(waitMax, float64(ev.Dur)/1e6)
		case ev.Cat == "phase" && strings.HasPrefix(ev.Name, "eval."):
			id := strings.TrimPrefix(ev.Name, "eval.")
			key := "experiments." + id + "_s"
			if _, named := layers[key]; named {
				layers[key] += float64(ev.Dur) / 1e9
			} else {
				rest += float64(ev.Dur) / 1e9
			}
		}
	}
	layers["experiments.rest_s"] = rest
	layers["experiments.queue_wait_ms.max"] = waitMax
}

// rankLayer times Ranking.Names and TopSet on fresh copies of the longest
// list served on the final day, so every call does the materialization a
// first read of a newly published list pays.
func rankLayer(layers map[string]float64, s *core.Study, w workload) {
	var longest *rank.Ranking
	for _, list := range s.ListNames() {
		if r, err := s.RankingFor(list, w.days-1); err == nil && (longest == nil || r.Len() > longest.Len()) {
			longest = r
		}
	}
	if longest == nil {
		return
	}
	const reps = 21
	var namesUS, topsetUS []float64
	for i := 0; i < reps; i++ {
		a := rank.MustFromIDs(longest.Table(), longest.IDs())
		t := time.Now()
		a.Names()
		namesUS = append(namesUS, float64(time.Since(t))/1e3)
		b := rank.MustFromIDs(longest.Table(), longest.IDs())
		t = time.Now()
		b.TopSet(1000)
		topsetUS = append(topsetUS, float64(time.Since(t))/1e3)
	}
	layers["rank.names_us"] = median(namesUS)
	layers["rank.topset_us"] = median(topsetUS)
}
