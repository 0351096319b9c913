package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"toplists/internal/core"
	"toplists/internal/experiments"
	"toplists/internal/obs"
	"toplists/internal/rank"
	"toplists/internal/snapshot"
)

// childSpec tells a child process which lifecycle to run.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Mode is "setup" (build the study and stop), "run" (the untraced
	// lifecycle) or "trace" (the same lifecycle with the obs tracer
	// attached and each layer timed on its own).
	Mode string `json:"mode"`
	Dir  string `json:"dir"`
	// SpawnNS and SpawnTicks are the parent's wall clock and CPU tick
	// reading just before it started the child, so setup and wall time
	// include process start.
	SpawnNS    int64    `json:"spawn_ns"`
	SpawnTicks cpuTicks `json:"spawn_ticks"`
}

// childResult is what a child reports on the last line of its stdout.
type childResult struct {
	Setup   timed   `json:"setup"`
	Build   timed   `json:"build"`
	Eval    timed   `json:"eval"`
	Wall    timed   `json:"wall"`
	Advance []timed `json:"advance"`
	// ReadNS holds each closed-loop read's latency; ReadLoop is the whole
	// read phase, whose steal factor corrects read_rps.
	ReadNS     []int64 `json:"read_ns"`
	ReadLoop   timed   `json:"read_loop"`
	Checkpoint []timed `json:"checkpoint"`
	Recover    []timed `json:"recover"`
	// CPUSeconds and RSSMB are the process's own resource usage when the
	// last artifact was written, before the read, checkpoint and recover
	// phases that follow the reproduction.
	CPUSeconds float64            `json:"cpu_s"`
	RSSMB      float64            `json:"rss_mb"`
	Digest     string             `json:"digest"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// op counts one attempted operation and, if err is set, its failure.
func (r *childResult) op(err error, format string, args ...any) {
	r.Attempted++
	if err != nil {
		r.fail(format+": %v", append(args, err)...)
	}
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// spans times the harness's calls into each layer. The calls are made one
// after another from one goroutine, so every span is top level and its
// self time is its duration. In a traced run each span also lands on the
// program's own timeline as a "bench.<name>" phase.
type spans struct {
	tr    *obs.Tracer
	total time.Duration
}

func (sp *spans) time(name string, fn func()) timed {
	w := startWatch()
	fn()
	t := w.stop()
	sp.total += t.dur()
	sp.tr.Phase("bench."+name, w.start, t.dur())
	return t
}

// runLifecycle is the in-process study lifecycle a child executes: build
// the study, advance every day, evaluate (batch: run and render the
// experiment set; serve: read every list on every day), read rankings in
// a closed loop, checkpoint, and recover from the newest checkpoint.
func runLifecycle(w workload, spec childSpec) childResult {
	var res childResult
	traced := spec.Mode == "trace"
	reg := obs.NewRegistry()
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer(1 << 18)
		reg.SetTracer(tr)
	}
	sp := &spans{tr: tr}
	layers := map[string]float64{}
	spawn := stopwatch{start: time.Unix(0, spec.SpawnNS), ticks: spec.SpawnTicks}
	ctx := context.Background()

	var s *core.Study
	worldDur := sp.time("world", func() { s = core.NewStudy(w.studyConfig(spec.Seed, reg)) })
	defer s.Close()
	res.Setup = spawn.stop()
	if spec.Mode == "setup" {
		return res
	}
	build := startWatch()

	// Build: one AdvanceDay per day, the call toplistsd's /v1/advance
	// makes; Study.RunContext is the same loop under one lock hold.
	amalgam := reg.Phase("phase.amalgam")
	var trafficMS, amalgamMS []float64
	var allocBytes uint64
	var mem runtime.MemStats
	for d := 0; d < w.days; d++ {
		var amalgam0 time.Duration
		if traced {
			runtime.ReadMemStats(&mem)
			allocBytes -= mem.TotalAlloc
			amalgam0 = amalgam.Total()
		}
		var err error
		t := sp.time("advance", func() { err = s.AdvanceDay(ctx) })
		res.op(err, "advance day %d", d)
		res.Advance = append(res.Advance, t)
		if traced {
			am := amalgam.Total() - amalgam0
			amalgamMS = append(amalgamMS, float64(am)/1e6)
			trafficMS = append(trafficMS, float64(t.dur()-am)/1e6)
			runtime.ReadMemStats(&mem)
			allocBytes += mem.TotalAlloc
		}
	}
	res.Build = build.stop()

	eval := startWatch()
	h := sha256.New()
	if w.serve {
		sp.time("archive", func() { archiveDigest(s, w, h, &res) })
	} else {
		evaluate(ctx, s, w, spec, sp, h, &res, layers)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	res.Eval = eval.stop()
	res.Wall = spawn.stop()
	u := selfUsage()
	res.CPUSeconds, res.RSSMB = u.cpu, u.rssMB

	var rankingForNS []int64
	sp.time("reads", func() { rankingForNS = inProcessReads(s, w, spec.Seed, &res) })

	snap := checkpointAndRecover(s, w, spec, sp, traced, &res)

	if !traced {
		return res
	}
	end := time.Now()
	rep := reg.Snapshot()
	runtime.ReadMemStats(&mem)
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: trace ring dropped %d spans; engine figures are partial\n", n)
	}
	events := tr.Events()
	layers["world.build_s"] = worldDur.seconds(false)
	trafficLayer(layers, events, rep, trafficMS, allocBytes, w.days)
	layers["providers.amalgam_ms.p50"] = median(amalgamMS)
	sketchLayer(layers, rep)
	probeLayer(layers, rep, w.sites)
	artifactLayer(layers, rep)
	layers["core.ranking_for_us"] = median(nsTo(rankingForNS, 1e3))
	experimentLayer(layers, events)
	rankLayer(layers, s, w)
	for k, v := range snap {
		layers[k] = v
	}
	layers["runtime.alloc_gb"] = float64(mem.TotalAlloc) / (1 << 30)
	layers["runtime.gc_cpu_share"] = mem.GCCPUFraction
	layers["unattributed_share"] = 1 - sp.total.Seconds()/end.Sub(spawn.start).Seconds()
	res.Layers = layers
	return res
}

// evaluate runs the experiment set on the evaluation pool exactly as
// `toplists -experiment` does (Study.RunExperiments), renders each result
// to <dir>/<id>.txt, and hashes the rendered stream as the CLI prints it
// to stdout: each artifact followed by a blank line.
func evaluate(ctx context.Context, s *core.Study, w workload, spec childSpec, sp *spans, h hash.Hash, res *childResult, layers map[string]float64) {
	runners := make([]experiments.Runner, len(w.experiments))
	for i, id := range w.experiments {
		r, ok := experiments.Lookup(id)
		if !ok {
			res.op(fmt.Errorf("unknown experiment"), "%s", id)
			return
		}
		runners[i] = r
	}
	layers["httpsim.probe_cf_s"] = 0
	if spec.Mode == "trace" && w.probes {
		// Traced runs take the shared probe sweep out of the pool so its
		// cost is attributed to the prober, not to whichever experiment
		// happened to ask first.
		var err error
		t := sp.time("probe_cf", func() { err = s.Artifacts().ProbeCF(ctx) })
		res.op(err, "ProbeCF")
		layers["httpsim.probe_cf_s"] = t.seconds(false)
	}
	var outcomes []experiments.Outcome
	sp.time("experiments", func() {
		outcomes = experiments.RunConcurrent(ctx, s, runners, s.Cfg.Workers)
	})
	var render time.Duration
	for _, oc := range outcomes {
		if oc.Err != nil {
			res.op(oc.Err, "experiment %s", oc.Runner.ID)
			continue
		}
		var buf bytes.Buffer
		var err error
		render += sp.time("render", func() {
			if err = oc.Result.Render(&buf); err == nil {
				err = os.WriteFile(filepath.Join(spec.Dir, oc.Runner.ID+".txt"), buf.Bytes(), 0o644)
			}
		}).dur()
		res.op(err, "render %s", oc.Runner.ID)
		buf.WriteByte('\n')
		h.Write(buf.Bytes())
	}
	layers["report.render_ms"] = float64(render) / 1e6
}

// archiveDigest hashes every published list on every day, in canonical
// list order: the in-process equivalent of the serve workload fetching
// /v1/rankings/{list}?day=d&k=0 for each, hashed by hashRanking.
func archiveDigest(s *core.Study, w workload, h hash.Hash, res *childResult) {
	for _, list := range s.ListNames() {
		for d := 0; d < w.days; d++ {
			r, err := s.RankingFor(list, d)
			res.op(err, "ranking %s day %d", list, d)
			if err == nil {
				hashRanking(h, list, d, r.Names())
			}
		}
	}
}

// hashRanking feeds one served ranking into an archive digest.
func hashRanking(h io.Writer, list string, day int, names []string) {
	fmt.Fprintf(h, "%s\t%d\t%d\n", list, day, len(names))
	for _, n := range names {
		io.WriteString(h, n)
		io.WriteString(h, "\n")
	}
}

// readK is the top-k cut every ranking and diff read asks for:
// toplistsd's default. One cut keeps the read latency distribution from
// splitting into groups whose order shifts with machine load.
const readK = 100

// inProcessReads issues w.reads reads against the finished study, closed
// loop from one goroutine. It times only the program's own calls, the
// ones toplistsd's read handlers make: 80% are a ranking read
// (Study.RankingFor, then Ranking.Names cut to readK), 20% a diff read
// (RankingFor and TopSet(readK) on two days of one list). It returns the
// latency of the Study.RankingFor calls alone. One goroutine, because
// with two a read's sub-microsecond latency depended on whether they ran
// on the same CPU or contended for the lifecycle lock across two, and
// the median jumped between about 0.29 and 0.46 µs from run to run.
func inProcessReads(s *core.Study, w workload, seed uint64, res *childResult) []int64 {
	lists := s.ListNames()
	res.ReadNS = make([]int64, 0, w.reads)
	rankingFor := make([]int64, 0, w.reads+w.reads/4)
	failed := 0
	ranking := func(list string, day int) *rank.Ranking {
		t := time.Now()
		r, err := s.RankingFor(list, day)
		rankingFor = append(rankingFor, time.Since(t).Nanoseconds())
		if err != nil {
			return nil
		}
		return r
	}
	rng := rand.New(rand.NewPCG(seed, 100))
	loop := startWatch()
	for i := 0; i < w.reads; i++ {
		list := lists[rng.IntN(len(lists))]
		if rng.IntN(10) < 2 {
			to := 1 + rng.IntN(w.days-1)
			from := rng.IntN(to)
			t := time.Now()
			if a, b := ranking(list, from), ranking(list, to); a != nil && b != nil {
				a.TopSet(readK)
				b.TopSet(readK)
			} else {
				failed++
			}
			res.ReadNS = append(res.ReadNS, time.Since(t).Nanoseconds())
			continue
		}
		day := rng.IntN(w.days)
		t := time.Now()
		if r := ranking(list, day); r != nil {
			_ = r.Names()[:min(readK, r.Len())]
		} else {
			failed++
		}
		res.ReadNS = append(res.ReadNS, time.Since(t).Nanoseconds())
	}
	res.ReadLoop = loop.stop()
	res.Attempted += w.reads
	if failed > 0 {
		res.fail("%d in-process reads failed", failed)
		res.Failed += failed - 1
	}
	return rankingFor
}

// recovers is how many times a batch child recovers the newest
// generation, so one slow recovery does not decide recovery_s.
const recovers = 3

// checkpointAndRecover writes w.checkpoints fsynced generations of the
// finished study into <dir>/ckpt, recovers the newest one with
// core.Recover recovers times, and checks each time that every list's
// final-day ranking survived byte for byte. A traced run splits each checkpoint into its encode and
// its durable write and returns those per-layer figures.
func checkpointAndRecover(s *core.Study, w workload, spec childSpec, sp *spans, traced bool, res *childResult) map[string]float64 {
	dir, err := snapshot.OpenDir(filepath.Join(spec.Dir, "ckpt"))
	res.op(err, "open checkpoint dir")
	if err != nil {
		return nil
	}
	var encodeMS, writeMS []float64
	var snapBytes int
	for i := 0; i < w.checkpoints; i++ {
		var t timed
		if traced {
			var buf bytes.Buffer
			enc := sp.time("snapshot_encode", func() { err = s.Snapshot(&buf) })
			res.op(err, "snapshot encode")
			write := sp.time("snapshot_write", func() {
				_, _, err = dir.Write(func(f io.Writer) error { _, err := f.Write(buf.Bytes()); return err })
			})
			res.op(err, "snapshot write")
			encodeMS = append(encodeMS, enc.seconds(false)*1e3)
			writeMS = append(writeMS, write.seconds(false)*1e3)
			snapBytes = buf.Len()
			t = sumTimed([]timed{enc, write})
		} else {
			t = sp.time("checkpoint", func() { _, _, err = dir.Write(s.Snapshot) })
			res.op(err, "checkpoint")
		}
		res.Checkpoint = append(res.Checkpoint, t)
	}

	for i := 0; i < recovers; i++ {
		var rec core.Recovered
		t := sp.time("recover", func() {
			rec, err = core.Recover(dir, core.ResumeOptions{Obs: obs.NewRegistry()}, nil)
		})
		res.Recover = append(res.Recover, t)
		res.op(err, "recover")
		if err != nil {
			continue
		}
		for _, list := range s.ListNames() {
			res.Attempted++
			a, errA := s.RankingFor(list, w.days-1)
			b, errB := rec.Study.RankingFor(list, w.days-1)
			switch {
			case errA != nil || errB != nil:
				res.fail("recovered %s: %v %v", list, errA, errB)
			case !slices.Equal(a.Names(), b.Names()):
				res.fail("recovered %s differs from the checkpointed study", list)
			}
		}
		rec.Study.Close()
	}
	if !traced {
		return nil
	}
	return map[string]float64{
		"snapshot.encode_ms": median(encodeMS),
		"snapshot.bytes":     float64(snapBytes),
		"snapshot.write_ms":  median(writeMS),
		"snapshot.recover_s": median(seconds(res.Recover, false)),
	}
}
