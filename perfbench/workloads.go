package main

import (
	"fmt"
	"time"

	"toplists/internal/core"
	"toplists/internal/experiments"
	"toplists/internal/obs"
	"toplists/internal/sketch"
)

// defaultSeed is the seed used when --seed is omitted, and the one whose
// output digests are pinned in workload.digest.
const defaultSeed = 1

// workload is one named input set. Batch workloads run the library
// lifecycle in a fresh child process; the serve workload drives the
// toplistsd binary over HTTP.
type workload struct {
	name    string
	sites   int
	clients int
	days    int
	sketch  bool
	// allCombos mirrors cmd/toplists, which always tracks all 21
	// Cloudflare combinations.
	allCombos bool
	// experiments is the batch experiment set, in output order.
	experiments []string
	// probes reports whether the experiment set needs the CF probe sweep,
	// so the traced run times Artifacts.ProbeCF on its own only where the
	// untraced run would pay for it anyway.
	probes bool
	serve  bool

	// reads is the number of closed-loop reads issued against the
	// finished study: in process (batch) or over HTTP (serve).
	reads int
	// checkpoints is how many snapshot generations the lifecycle writes.
	checkpoints int

	// Serve-only knobs: the writer advances one day every period and
	// checkpoints every ckptEvery days, while the reader issues readRate
	// reads/s open loop from one connection. The closed-loop read phase
	// that follows issues reads reads. A day holds the lifecycle lock for
	// about a fifth of the period, so the share of reads that wait on a
	// day stays far below half and read_p50_ms measures an unblocked read.
	period    time.Duration
	ckptEvery int
	readRate  float64

	// digest is the pinned output digest at defaultSeed: the sha256 of
	// the rendered artifacts (batch) or of every served list on every day
	// (serve).
	digest string
}

// allExperimentIDs is the set `toplists -experiment all` runs: the paper
// artifacts in paper order, then the extensions.
func allExperimentIDs() []string {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	for _, r := range experiments.Extensions() {
		ids = append(ids, r.ID)
	}
	return ids
}

var workloads = []workload{
	{
		name:  "paper-exact",
		sites: 10000, clients: 2000, days: 7,
		allCombos:   true,
		experiments: allExperimentIDs(),
		probes:      true,
		reads:       200000,
		checkpoints: 5,
		digest:      "41e1cca9ec742654e178e68fd20a421b114ab16907cb82c60a5bc4931db6dafe",
	},
	{
		name:  "sim-sketch",
		sites: 10000, clients: 4000, days: 4,
		sketch:      true,
		allCombos:   true,
		experiments: []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "tab2", "tab3", "stability"},
		reads:       200000,
		checkpoints: 5,
		digest:      "446c2191731262437f37c507eaaad24dfd96c9ac06cd30390c288ce093667411",
	},
	{
		name:  "serve-mixed",
		sites: 10000, clients: 2000, days: 8,
		serve:       true,
		reads:       3000,
		checkpoints: 5,
		period:      500 * time.Millisecond,
		ckptEvery:   2,
		readRate:    200,
		digest:      "656e8d6a77f96fd8c6472905adda81179e5001cf5f50a28e35eb2897879d8dfc",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// studyConfig is the core configuration the workload's study runs with.
// Workers 0 sizes both the day simulation and the evaluation pool to the
// CPU count, as cmd/toplists and cmd/toplistsd do by default.
func (w workload) studyConfig(seed uint64, reg *obs.Registry) core.Config {
	return core.Config{
		Seed:           seed,
		NumSites:       w.sites,
		NumClients:     w.clients,
		Days:           w.days,
		TrackAllCombos: w.allCombos,
		Sketch:         sketch.Config{Enabled: w.sketch},
		Obs:            reg,
	}
}

// serverArgs are the toplistsd flags equivalent to studyConfig.
func (w workload) serverArgs(seed uint64) []string {
	args := []string{
		"-seed", fmt.Sprint(seed),
		"-sites", fmt.Sprint(w.sites),
		"-clients", fmt.Sprint(w.clients),
		"-days", fmt.Sprint(w.days),
		"-quiet",
	}
	if w.sketch {
		args = append(args, "-sketch")
	}
	if w.allCombos {
		args = append(args, "-allcombos")
	}
	return args
}
