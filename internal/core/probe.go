package core

import (
	"context"
	"net/http"
	"time"

	"toplists/internal/httpsim"
)

// ProbeSweepDays is how many virtual days a probe sweep may spend on a
// host before giving up: hosts left Unknown after a day's retries are
// re-probed on the next day with fresh fault-plan coordinates and a
// closed circuit breaker, mirroring how the paper's crawls re-visit
// unreachable entries on later days rather than dropping them outright.
const ProbeSweepDays = 3

// NewSweepProber returns the hardened prober the study sweeps with, over
// client. The per-attempt bound is a pure safety net, set far above any
// plausible in-memory latency: injected stalls self-resolve on their own
// fixed schedule, so nothing should ever hit this timeout. That matters
// for determinism — a spurious timeout on a loaded machine would consume
// an attempt number and shift every later fault decision. Experiments
// that re-run the study's sweep on a network of their own build their
// prober here, so their answers are comparable to the study's.
func NewSweepProber(client *http.Client) *httpsim.Prober {
	p := httpsim.NewProber(client)
	p.Concurrency = 64
	p.AttemptTimeout = 10 * time.Second
	p.BackoffBase = 200 * time.Microsecond
	return p
}

// newProber builds the study's instrumented sweep prober over its network.
func (s *Study) newProber() (*httpsim.Prober, error) {
	n, err := s.network()
	if err != nil {
		return nil, err
	}
	p := NewSweepProber(n.Client())
	p.Metrics = httpsim.NewProbeMetrics(s.obs)
	return p, nil
}

// probeSweep runs the ProbeSweepDays retry sweep over hosts on the study
// network and reports, per host in input order, whether it is
// Cloudflare-served. Hosts that stay Unknown after the final day are
// deterministically treated as not Cloudflare-served — the same
// conservative fallback the paper's filtering applies to unreachable
// entries. Callers go through Artifacts.probeHosts, which runs each host
// through here at most once per study.
func (s *Study) probeSweep(ctx context.Context, hosts []string) ([]bool, error) {
	defer s.obs.Span("phase.probe_sweep").End()
	prober, err := s.newProber()
	if err != nil {
		return nil, err
	}
	rs, err := prober.Sweep(ctx, hosts, ProbeSweepDays)
	if err != nil {
		return nil, err
	}
	cf := make([]bool, len(rs))
	for i, r := range rs {
		cf[i] = r.Cloudflare
	}
	return cf, nil
}

// ProbeHostsContext probes arbitrary hostnames (FQDN or origin-host form)
// and reports which are Cloudflare-served; used for the per-entry coverage
// of Table 1. Hosts the study has already probed — by ProbeCF or an
// earlier or concurrent call — are answered from the study's probe table
// rather than probed again. Cancellation returns ctx's error rather than
// a partial (misclassified) set.
func (s *Study) ProbeHostsContext(ctx context.Context, hosts []string) (map[string]struct{}, error) {
	return s.artifacts.probeHosts(ctx, hosts)
}
