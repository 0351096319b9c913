package httpsim

import (
	"time"

	"toplists/internal/obs"
)

// ProbeMetrics counts what the hardened prober did: probes launched,
// HTTP attempts issued, retry rounds entered, the outcome trichotomy,
// Cloudflare classifications, and breaker activity. All counters are
// deterministic for a fixed (seed, config): a host's attempt sequence is
// decided solely by the fault plan and the prober's own knobs, never by
// goroutine scheduling (probes of different hosts do not share state, and
// a single host's strikes are only touched from its own probe). The only
// volatile value is the wall-clock probe duration histogram.
//
// A nil *ProbeMetrics is a no-op, so an unattached Prober pays one
// predictable branch per event.
type ProbeMetrics struct {
	probes      *obs.Counter
	attempts    *obs.Counter
	retryRounds *obs.Counter

	outcomeOK      *obs.Counter
	outcomeDown    *obs.Counter
	outcomeUnknown *obs.Counter
	cloudflare     *obs.Counter

	breakerTrips *obs.Counter
	breakerSkips *obs.Counter

	probeTime *obs.Histogram

	// tracer, captured at registration, puts each sweep day on the run
	// timeline as a "probe.round" span.
	tracer *obs.Tracer
}

// NewProbeMetrics registers the probe.* instrument family on r. All
// counters are registered up front so the run report's key set does not
// depend on which outcomes occurred. Safe on a nil registry.
func NewProbeMetrics(r *obs.Registry) *ProbeMetrics {
	return &ProbeMetrics{
		probes:         r.Counter("probe.probes"),
		attempts:       r.Counter("probe.attempts"),
		retryRounds:    r.Counter("probe.retry_rounds"),
		outcomeOK:      r.Counter("probe.outcome.ok"),
		outcomeDown:    r.Counter("probe.outcome.down"),
		outcomeUnknown: r.Counter("probe.outcome.unknown"),
		cloudflare:     r.Counter("probe.cloudflare"),
		breakerTrips:   r.Counter("probe.breaker.trips"),
		breakerSkips:   r.Counter("probe.breaker.skips"),
		probeTime:      r.Histogram("probe.duration"),
		tracer:         r.Tracer(),
	}
}

// observeProbe records one completed probe: its attempt count, outcome,
// and wall time.
func (m *ProbeMetrics) observeProbe(res *ProbeResult, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.probes.Inc()
	m.attempts.Add(int64(res.Attempts))
	switch res.Outcome {
	case OutcomeOK:
		m.outcomeOK.Inc()
	case OutcomeDown:
		m.outcomeDown.Inc()
	default:
		m.outcomeUnknown.Inc()
	}
	if res.Cloudflare {
		m.cloudflare.Inc()
	}
	m.probeTime.Observe(elapsed)
}

// sweepDay records one day of a Sweep on the run timeline.
func (m *ProbeMetrics) sweepDay(day int, start time.Time) {
	if m == nil {
		return
	}
	m.tracer.Span("probe.round", "probe", int64(day), start, time.Since(start))
}

func (m *ProbeMetrics) retryRound() {
	if m == nil {
		return
	}
	m.retryRounds.Inc()
}

func (m *ProbeMetrics) breakerTripped() {
	if m == nil {
		return
	}
	m.breakerTrips.Inc()
}

func (m *ProbeMetrics) breakerSkipped() {
	if m == nil {
		return
	}
	m.breakerSkips.Inc()
}
