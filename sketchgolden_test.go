package toplists

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"toplists/internal/cfmetrics"
	"toplists/internal/obs"
	"toplists/internal/providers"
)

// TestSketchGolden pins sketch-mode output byte for byte: the full
// RenderAll text, the deterministic sketch gauges (memory peaks and the
// count-min error bound), and a digest of every published day list of two
// sketch-mode studies, at workers 1, 4 (traced) and auto. The render
// rounds most figures to two decimals; the list digests catch a single
// swapped rank. TestSketchDeterminism only compares worker counts with
// each other and the oracle bounds only hold rankings near the exact path;
// this golden is what catches a kernel or barrier change that moves any
// sketch output at all. Seed 7 tracks all 21 Cloudflare combos; seed 9 is
// a larger, sparser universe with the seven canonical metrics.
//
// Regenerate with: go test -run TestSketchGolden -update-golden
func TestSketchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six sketch-mode studies")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"seed7", Config{Seed: 7, Sites: 1500, Clients: 500, Days: 5, AllCombos: true, Sketch: true}},
		{"seed9", Config{Seed: 9, Sites: 6000, Clients: 400, Days: 2, Sketch: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			renderPath := filepath.Join("testdata", "golden_sketch_"+tc.name+".txt")
			reportPath := filepath.Join("testdata", "golden_sketch_"+tc.name+"_report.txt")
			for _, workers := range []int{1, 4, 0} {
				cfg := tc.cfg
				cfg.Workers = workers
				// The workers=4 run is traced: tracing must not move a
				// byte, and it must see one barrier span per day.
				var tracer *obs.Tracer
				if workers == 4 {
					cfg.Obs = obs.NewRegistry()
					tracer = obs.NewTracer(0)
					cfg.Obs.SetTracer(tracer)
				}
				render, report := sketchGoldenRun(t, cfg)
				if tracer != nil {
					n := 0
					for _, ev := range tracer.Events() {
						if ev.Name == "engine.barrier" {
							n++
						}
					}
					if n != cfg.Days {
						t.Errorf("traced run recorded %d engine.barrier spans over %d days", n, cfg.Days)
					}
				}
				if *updateGolden {
					if workers == 1 {
						writeGolden(t, renderPath, render)
						writeGolden(t, reportPath, report)
					}
					continue
				}
				checkGolden(t, fmt.Sprintf("workers=%d render", workers), renderPath, render)
				checkGolden(t, fmt.Sprintf("workers=%d report", workers), reportPath, report)
			}
		})
	}
}

// sketchGoldenRun builds one study and returns its rendered evaluation and
// its deterministic sketch.* gauges as sorted "name value" lines, followed
// by one FNV-64a digest line per traffic-fed list family.
func sketchGoldenRun(t *testing.T, cfg Config) (render, report string) {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b strings.Builder
	if err := s.RenderAll(&b); err != nil {
		t.Fatal(err)
	}
	rep := s.Metrics().Snapshot()
	var names []string
	for k := range rep.Gauges {
		if strings.HasPrefix(k, "sketch.") {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		t.Fatal("report has no sketch.* gauges")
	}
	sort.Strings(names)
	var g strings.Builder
	for _, k := range names {
		fmt.Fprintf(&g, "%s %d\n", k, rep.Gauges[k])
	}

	in := s.inner
	h := fnv.New64a()
	for d := 0; d < cfg.Days; d++ {
		for _, c := range cfmetrics.AllCombos() {
			if !in.Pipeline.Tracks(c) {
				continue
			}
			for _, site := range in.Pipeline.DayList(d, c) {
				fmt.Fprintf(h, "%d,", site)
			}
			h.Write([]byte{'\n'})
		}
	}
	fmt.Fprintf(&g, "lists.cf %016x\n", h.Sum64())
	for _, l := range []providers.List{in.Alexa, in.Umbrella, in.Secrank, in.Tranco} {
		h.Reset()
		for d := 0; d < cfg.Days; d++ {
			for _, name := range listNames(l, d) {
				fmt.Fprintf(h, "%s,", name)
			}
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(&g, "lists.%s %016x\n", l.Name(), h.Sum64())
	}
	return b.String(), g.String()
}

func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, label, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (len %d vs %d):\n%s",
			label, path, len(got), len(want), firstDiffLine(string(want), got))
	}
}
