package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"toplists/internal/obs"
)

// TestProbeCFCanceledNotMemoized: a CF probe aborted by its context must
// not be memoized as the study's answer. The aborted sweep releases its
// claims on the probe table, and the next caller gets a fresh, complete
// sweep.
func TestProbeCFCanceledNotMemoized(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2})
	s.Run()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Artifacts().ProbeCF(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProbeCF under canceled context: %v, want context.Canceled", err)
	}
	if n := probeTableLen(s.Artifacts()); n != 0 {
		t.Fatalf("canceled sweep left %d claims in the probe table", n)
	}

	if err := s.Artifacts().ProbeCF(context.Background()); err != nil {
		t.Fatalf("retry after canceled sweep: %v", err)
	}
	probed := s.CFDomains()
	want := s.World.CloudflareSet()
	if len(probed) != len(want) {
		t.Fatalf("probed %d CF domains after canceled first sweep, want %d", len(probed), len(want))
	}
	for d := range want {
		if _, ok := probed[d]; !ok {
			t.Errorf("missing %s", d)
		}
	}
}

func probeTableLen(a *Artifacts) int {
	a.probeMu.Lock()
	defer a.probeMu.Unlock()
	return len(a.probes)
}

// TestProbeAbandonedClaimReclaimed: a sweep waiting on a host that another
// sweep holds re-claims and probes it itself when the holder abandons it,
// and returns the same answer as an uncontended sweep.
func TestProbeAbandonedClaimReclaimed(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400})
	defer s.Close()
	hosts := siteDomains(s, 60)
	a := s.Artifacts()

	// Hold the first ten hosts as an in-flight sweep would.
	held := hosts[:10]
	es := make([]*probeEntry, len(held))
	a.probeMu.Lock()
	for i, h := range held {
		es[i] = &probeEntry{done: make(chan struct{})}
		a.probes[h] = es[i]
	}
	a.probeMu.Unlock()

	type out struct {
		cf  map[string]struct{}
		err error
	}
	got := make(chan out, 1)
	go func() {
		cf, err := s.ProbeHostsContext(context.Background(), hosts)
		got <- out{cf, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("sweep returned (err %v) while another sweep held its hosts", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	a.abandonProbes(held, es)
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	fresh := NewStudy(Config{Seed: 5, NumSites: 400})
	defer fresh.Close()
	want, err := fresh.ProbeHostsContext(context.Background(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.cf, want) {
		t.Errorf("sweep after an abandoned claim found %d CF hosts, uncontended sweep %d", len(r.cf), len(want))
	}
	if n := probeTableLen(a); n != len(hosts) {
		t.Errorf("probe table holds %d hosts, want %d", n, len(hosts))
	}
}

// TestProbeTableScheduleFree: under a fault plan a host's outcome is the
// same whether it is probed alone, in one batch, or split across two
// concurrent overlapping sweeps; and the overlapping sweeps probe each host
// of their union exactly once.
func TestProbeTableScheduleFree(t *testing.T) {
	cfg := Config{Seed: 8, NumSites: 400, FaultRate: 0.05}
	newStudy := func() (*Study, *obs.Registry) {
		reg := obs.NewRegistry()
		c := cfg
		c.Obs = reg
		s := NewStudy(c)
		t.Cleanup(s.Close)
		return s, reg
	}
	probe := func(s *Study, hosts []string) map[string]struct{} {
		cf, err := s.ProbeHostsContext(context.Background(), hosts)
		if err != nil {
			t.Fatal(err)
		}
		return cf
	}

	s, _ := newStudy()
	hosts := siteDomains(s, 240)
	batch := probe(s, hosts)
	if len(batch) == 0 {
		t.Fatal("batch sweep found no Cloudflare hosts; the comparison is vacuous")
	}

	alone, _ := newStudy()
	for _, h := range hosts {
		_, got := probe(alone, []string{h})[h]
		if _, want := batch[h]; got != want {
			t.Errorf("%s: cf=%v probed alone, %v in one batch", h, got, want)
		}
	}

	split, reg := newStudy()
	parts := [][]string{hosts[:160], hosts[80:]}
	sets := make([]map[string]struct{}, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part []string) {
			defer wg.Done()
			cf, err := split.ProbeHostsContext(context.Background(), part)
			if err != nil {
				t.Error(err)
				return
			}
			sets[i] = cf
		}(i, part)
	}
	wg.Wait()
	union := make(map[string]struct{})
	for _, cf := range sets {
		for h := range cf {
			union[h] = struct{}{}
		}
	}
	if !reflect.DeepEqual(union, batch) {
		t.Errorf("overlapping concurrent sweeps found %d CF hosts, one batch %d", len(union), len(batch))
	}
	rep := reg.Snapshot()
	if got := rep.Counters["probe.probes"]; got != int64(len(hosts)) {
		t.Errorf("probe.probes = %d over two overlapping sweeps, want |union| = %d", got, len(hosts))
	}
	if got := rep.Counters["artifacts.probe.misses"]; got != int64(len(hosts)) {
		t.Errorf("artifacts.probe.misses = %d, want %d", got, len(hosts))
	}
	if got, want := rep.Counters["artifacts.probe.hits"], int64(len(parts[0])+len(parts[1])-len(hosts)); got != want {
		t.Errorf("artifacts.probe.hits = %d, want the %d overlapping hosts", got, want)
	}
}

func siteDomains(s *Study, n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = s.World.Site(int32(i)).Domain
	}
	return hosts
}

// TestProbeAfterClose: after Close, a sweep over hosts the study already
// probed is answered from the probe table, while one that must really
// probe fails with ErrStudyClosed and claims nothing.
func TestProbeAfterClose(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400})
	hosts := siteDomains(s, 40)
	want, err := s.ProbeHostsContext(context.Background(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	got, err := s.ProbeHostsContext(context.Background(), hosts)
	if err != nil {
		t.Fatalf("memoized sweep after Close: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memoized sweep after Close found %d CF hosts, want %d", len(got), len(want))
	}
	if _, err := s.ProbeHostsContext(context.Background(), siteDomains(s, 41)); !errors.Is(err, ErrStudyClosed) {
		t.Fatalf("sweep needing a probe after Close: %v, want ErrStudyClosed", err)
	}
	if n := probeTableLen(s.Artifacts()); n != len(hosts) {
		t.Errorf("failed sweep left the table at %d hosts, want %d", n, len(hosts))
	}
}

// TestProbeHostsContextCanceled: the sweep surfaces cancellation as an
// error, never a partial set.
func TestProbeHostsContextCanceled(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2})
	s.Run()
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set, err := s.ProbeHostsContext(ctx, []string{s.World.Site(0).Domain})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if set != nil {
		t.Errorf("canceled sweep returned a set of %d hosts", len(set))
	}
}

// TestFaultPlanDerivation: the fault seed is stable per study seed,
// distinct across seeds, and overridable.
func TestFaultPlanDerivation(t *testing.T) {
	a := NewStudy(Config{Seed: 1, NumSites: 400, FaultRate: 0.1})
	b := NewStudy(Config{Seed: 1, NumSites: 400, FaultRate: 0.1})
	c := NewStudy(Config{Seed: 2, NumSites: 400, FaultRate: 0.1})
	if a.FaultSeed() != b.FaultSeed() {
		t.Error("same study seed derived different fault seeds")
	}
	if a.FaultSeed() == c.FaultSeed() {
		t.Error("different study seeds derived the same fault seed")
	}
	d := NewStudy(Config{Seed: 1, NumSites: 400, FaultRate: 0.1, FaultSeed: 99})
	if d.FaultSeed() != 99 {
		t.Errorf("FaultSeed override ignored: %d", d.FaultSeed())
	}
	if NewStudy(Config{Seed: 1, NumSites: 400}).FaultPlan() != nil {
		t.Error("rate-0 study has a fault plan")
	}
}
