// Command perfbench is the end-to-end benchmark of the toplists
// reproduction and of the toplistsd service. Run it through run.py, which
// builds it and toplistsd from source first:
//
//	python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) measures the workload for --seconds and
// prints every end-to-end metric; a traced run (--trace 1) runs it once
// more with the obs tracer attached and prints every per-layer metric.
// The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metric definitions and the
// layer-to-metric predictions.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// setupRuns is how many extra set-ups a measured run makes, on top of the
// one inside each round, so setup_s is a median of several.
const setupRuns = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// childMain runs one lifecycle in this process and prints its result.
func childMain(args []string) int {
	var spec childSpec
	if len(args) != 1 || json.Unmarshal([]byte(args[0]), &spec) != nil {
		fmt.Fprintln(os.Stderr, "usage: perfbench child <spec json>")
		return 2
	}
	w, err := lookupWorkload(spec.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(runLifecycle(w, spec)); err != nil {
		return 1
	}
	return 0
}

// round is one measured unit of a workload: a batch child process or a
// serve session. Every wall-clock interval carries its own steal factor.
type round struct {
	setup, wall, build, eval      timed
	cpu, rssMB                    float64
	reads                         []timed // latency of each timed read
	readLoop                      timed   // the closed-loop read phase
	readsDone                     int     // reads completed in readLoop
	advance, checkpoint, recovery []timed
}

// bench is one invocation: a workload at a seed, and the operation and
// digest tallies every round adds to.
type bench struct {
	w         workload
	seed      uint64
	exe       string // this binary, re-run as the batch child
	daemonBin string // toplistsd, built next to it
	dir       string
	attempted int
	failed    int
	errs      []string
	digests   []string
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "study seed")
	seconds := fs.Int("seconds", 10, "how long an untraced run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-exact|sim-sketch|serve-mixed, --seconds >= 1, --trace 0|1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bin := filepath.Dir(exe)
	b := &bench{
		w: w, seed: *seed, exe: exe,
		daemonBin: filepath.Join(bin, "toplistsd"),
		dir:       filepath.Join(filepath.Dir(bin), "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	var metrics, raw map[string]float64
	var samples map[string]int
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		metrics, err = b.traced()
	} else {
		metrics, raw, samples, err = b.measure(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range digestFailures(w, *seed, b.digests) {
		b.fail(msg)
	}
	b.attempted += len(b.digests)
	printResult(b, defs, metrics, raw, samples)
	return 0
}

func (b *bench) fail(msg string) {
	b.failed++
	if len(b.errs) < 20 {
		b.errs = append(b.errs, msg)
	}
}

// count folds one unit's operation tally into the run's.
func (b *bench) count(attempted, failed int, errs []string) {
	b.attempted += attempted
	b.failed += failed
	for _, e := range errs {
		if len(b.errs) < 20 {
			b.errs = append(b.errs, e)
		}
	}
}

// measure runs setupRuns extra set-ups, then whole rounds for about
// seconds, and reduces them to the end-to-end metrics, steal-corrected
// (see steal.go). It also returns the same metrics uncorrected.
func (b *bench) measure(seconds time.Duration) (metrics, raw map[string]float64, samples map[string]int, err error) {
	start := time.Now()
	var setups []timed
	for i := 0; i < setupRuns; i++ {
		t, err := b.setupOnce(fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, t)
	}
	// Rounds run while the next one is expected to end within seconds.
	var rounds []round
	var longest time.Duration
	for len(rounds) == 0 || time.Since(start)+longest < seconds {
		t := time.Now()
		r, err := b.round(fmt.Sprintf("round-%d", len(rounds)))
		if err != nil {
			return nil, nil, nil, err
		}
		longest = max(longest, time.Since(t))
		fmt.Fprintf(os.Stderr, "perfbench: round %d: wall %.3f s, %.1f%% stolen\n", len(rounds), r.wall.seconds(false), 100*(1-r.wall.Factor))
		rounds = append(rounds, r)
		setups = append(setups, r.setup)
	}
	metrics, samples = e2eMetrics(rounds, setups, true)
	raw, _ = e2eMetrics(rounds, setups, false)
	return metrics, raw, samples, nil
}

// e2eMetrics reduces rounds to the end-to-end metrics, steal-corrected or
// as measured: per-round figures by their median across rounds, samples
// taken several times a round pooled across rounds.
func e2eMetrics(rounds []round, setups []timed, corrected bool) (map[string]float64, map[string]int) {
	col := func(f func(r round) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	pool := func(f func(r round) []timed, unit float64) []float64 {
		var out []float64
		for _, r := range rounds {
			for _, t := range f(r) {
				out = append(out, t.seconds(corrected)*unit)
			}
		}
		return out
	}
	sec := func(f func(r round) timed) []float64 {
		return col(func(r round) float64 { return f(r).seconds(corrected) })
	}
	reads := pool(func(r round) []timed { return r.reads }, 1e3)
	advances := pool(func(r round) []timed { return r.advance }, 1e3)
	checkpoints := pool(func(r round) []timed { return r.checkpoint }, 1e3)
	recoveries := pool(func(r round) []timed { return r.recovery }, 1)
	p50, _ := percentile(reads, 0.50)
	p99, beyond := percentile(reads, 0.99)
	if corrected && beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d of %d read samples lie beyond p99; read_p99_ms is not resolved\n", beyond, len(reads))
	}
	n := len(rounds)
	return map[string]float64{
			"setup_s":       median(seconds(setups, corrected)),
			"wall_s":        median(sec(func(r round) timed { return r.wall })),
			"build_s":       median(sec(func(r round) timed { return r.build })),
			"eval_s":        median(sec(func(r round) timed { return r.eval })),
			"cpu_s":         median(col(func(r round) float64 { return r.cpu })),
			"peak_rss_mb":   median(col(func(r round) float64 { return r.rssMB })),
			"read_p50_ms":   p50,
			"read_p99_ms":   p99,
			"read_rps":      median(col(func(r round) float64 { return float64(r.readsDone) / r.readLoop.seconds(corrected) })),
			"advance_ms":    median(advances),
			"checkpoint_ms": median(checkpoints),
			"recovery_s":    median(recoveries),
		}, map[string]int{
			"setup_s": len(setups), "wall_s": n, "build_s": n, "eval_s": n,
			"cpu_s": n, "peak_rss_mb": n, "read_p50_ms": len(reads), "read_p99_ms": len(reads),
			"read_rps": n, "advance_ms": len(advances), "checkpoint_ms": len(checkpoints), "recovery_s": len(recoveries),
		}
}

// setupOnce measures one set-up: a child that builds the study and exits
// (batch), or a toplistsd launch until /healthz answers (serve).
func (b *bench) setupOnce(sub string) (timed, error) {
	if b.w.serve {
		dir, err := b.subdir(sub)
		if err != nil {
			return timed{}, err
		}
		return serveSetup(b.daemonBin, b.w, b.seed, dir)
	}
	res, err := b.child("setup", sub)
	return res.Setup, err
}

// round runs one measured unit and folds its tallies into the run.
func (b *bench) round(sub string) (round, error) {
	if b.w.serve {
		dir, err := b.subdir(sub)
		if err != nil {
			return round{}, err
		}
		s, err := serveSession(b.daemonBin, b.w, b.seed, dir)
		if err != nil {
			return round{}, err
		}
		b.count(s.tally.attempted, s.tally.failed, s.tally.errs)
		b.digests = append(b.digests, s.digest)
		return s.round, nil
	}
	res, err := b.child("run", sub)
	if err != nil {
		return round{}, err
	}
	// A batch read takes well under a microsecond, far less than one
	// stolen slice, so steal lands on a few reads whole and leaves the
	// median alone: the latencies stay uncorrected. read_rps, a rate over
	// the whole loop, takes the loop's factor.
	reads := make([]timed, len(res.ReadNS))
	for i, ns := range res.ReadNS {
		reads[i] = timed{NS: ns, Factor: 1}
	}
	return round{
		setup: res.Setup, wall: res.Wall, build: res.Build, eval: res.Eval,
		cpu: res.CPUSeconds, rssMB: res.RSSMB,
		reads: reads, readLoop: res.ReadLoop, readsDone: len(res.ReadNS),
		advance: res.Advance, checkpoint: res.Checkpoint, recovery: res.Recover,
	}, nil
}

// traced runs the workload's lifecycle once untraced and once traced in
// child processes, and for serve-mixed one HTTP session besides, and
// returns the per-layer metrics.
func (b *bench) traced() (map[string]float64, error) {
	layers := map[string]float64{}
	if b.w.serve {
		dir, err := b.subdir("session")
		if err != nil {
			return nil, err
		}
		s, err := serveSession(b.daemonBin, b.w, b.seed, dir)
		if err != nil {
			return nil, err
		}
		b.count(s.tally.attempted, s.tally.failed, s.tally.errs)
		b.digests = append(b.digests, s.digest)
		layers["toplistsd.handler_share"] = s.handlerShare
		layers["loadgen.late_ms.p99"], _ = percentile(s.lateMS, 0.99)
	}
	plain, err := b.child("run", "plain")
	if err != nil {
		return nil, err
	}
	tr, err := b.child("trace", "traced")
	if err != nil {
		return nil, err
	}
	for k, v := range tr.Layers {
		layers[k] = v
	}
	layers["obs.trace_overhead"] = float64(tr.Wall.NS) / float64(plain.Wall.NS)
	return layers, nil
}

// child runs one lifecycle in a fresh process of this binary and returns
// its result.
func (b *bench) child(mode, sub string) (childResult, error) {
	var res childResult
	dir, err := b.subdir(sub)
	if err != nil {
		return res, err
	}
	spec := childSpec{Workload: b.w.name, Seed: b.seed, Mode: mode, Dir: dir, SpawnTicks: readTicks(), SpawnNS: time.Now().UnixNano()}
	arg, _ := json.Marshal(spec)
	cmd := exec.Command(b.exe, "child", string(arg))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s child: %w", mode, err)
	}
	b.count(res.Attempted, res.Failed, res.Errors)
	if mode != "setup" {
		b.digests = append(b.digests, res.Digest)
	}
	return res, nil
}

func (b *bench) subdir(sub string) (string, error) {
	dir := filepath.Join(b.dir, sub)
	return dir, os.MkdirAll(dir, 0o755)
}

// digestFailures checks a run's output digests. Every unit of a run must
// produce the same digest (for any seed), and at the default seed each
// must equal the workload's pinned digest. It returns one message per
// digest that fails either check.
func digestFailures(w workload, seed uint64, digests []string) []string {
	var out []string
	for i, d := range digests {
		switch {
		case d != digests[0]:
			out = append(out, fmt.Sprintf("digest %d (%s) differs from digest 0 (%s)", i, d, digests[0]))
		case seed == defaultSeed && d != w.digest:
			out = append(out, fmt.Sprintf("digest %d (%s) differs from the pinned %s", i, d, w.digest))
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes a readable table to stderr and the result line to
// stdout. A metric missing from metrics (a layer the workload does not
// exercise) reports 0. raw, when set, holds the uncorrected values.
func printResult(b *bench, defs []metricDef, metrics, raw map[string]float64, samples map[string]int) {
	res := result{Correct: b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d\n", b.w.name, b.seed)
	for _, d := range defs {
		v := metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if n, ok := samples[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-6s n=%-6d raw %.6g\n", d.name, v, d.unit, n, raw[d.name])
		} else {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(os.Stderr, "  %-32s %14.4f (%d failed of %d attempted)\n", "error_ratio",
		float64(b.failed)/float64(res.Attempted), b.failed, res.Attempted)
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "  failure:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(errors.New("perfbench: result not encodable"))
	}
	fmt.Println(string(line))
}
