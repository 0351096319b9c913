package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"toplists/internal/providers"
)

// daemon is one toplistsd process under test.
type daemon struct {
	cmd       *exec.Cmd
	readyFile string
	base      string
	exited    chan struct{}
}

// startDaemon launches toplistsd on a free port with the given checkpoint
// directory. The caller must stop it.
func startDaemon(bin string, w workload, seed uint64, dir, ckpt string) (*daemon, error) {
	d := &daemon{readyFile: filepath.Join(dir, fmt.Sprintf("addr.%d", time.Now().UnixNano())), exited: make(chan struct{})}
	args := append(w.serverArgs(seed), "-addr", "localhost:0", "-readyfile", d.readyFile, "-checkpoint", ckpt)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // a SIGKILLed process always "fails"
		close(d.exited)
	}()
	return d, nil
}

// waitOK polls path until it answers 200 and returns the body.
func (d *daemon) waitOK(c *http.Client, path string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, errors.New("toplistsd exited before it was ready")
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(d.readyFile); err == nil {
				if _, _, err := net.SplitHostPort(string(b)); err == nil {
					d.base = "http://" + string(b)
				}
			}
		}
		if d.base != "" {
			if code, body, err := do(c, "GET", d.base+path); err == nil && code == http.StatusOK {
				return body, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("toplistsd not ready on %s within 60s", path)
}

// kill SIGKILLs the process, waits for it, and returns its own resource
// usage (wait4 on its pid, never RUSAGE_CHILDREN).
func (d *daemon) kill() usage {
	d.cmd.Process.Kill() //nolint:errcheck // may already be gone
	<-d.exited
	return usageOf(d.cmd.ProcessState)
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func do(c *http.Client, method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// tally counts operations and failures across goroutines.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

// check counts one operation that should have answered want.
func (t *tally) check(code int, err error, want int, what string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil && code == want {
		return true
	}
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf("%s: status %d, err %v", what, code, err))
	}
	return false
}

// readPath picks one read of the mix: 70% top-readK rankings of a random
// list and published day, 20% day-over-day diffs, 10% status.
func readPath(rng *rand.Rand, published int) string {
	lists := providers.CanonicalOrder()
	list := lists[rng.IntN(len(lists))]
	switch kind := rng.IntN(10); {
	case kind == 0:
		return "/v1/status"
	case kind <= 2 && published >= 2:
		to := 1 + rng.IntN(published-1)
		return fmt.Sprintf("/v1/diff?list=%s&from=%d&to=%d&k=%d", list, rng.IntN(to), to, readK)
	default:
		return fmt.Sprintf("/v1/rankings/%s?day=%d&k=%d", list, rng.IntN(published), readK)
	}
}

// sessionResult is one serve-mixed session: its measured round plus
// what only the session reports.
type sessionResult struct {
	round
	lateMS       []float64
	digest       string
	handlerShare float64
	tally        tally
}

// serveSession drives one toplistsd lifetime: launch on an empty
// checkpoint directory; advance one day per period while one connection
// reads open loop at readRate and checkpoints go out every ckptEvery
// days; issue w.reads reads closed loop on two connections; fetch
// every list on every day (the archive, hashed); then SIGKILL, restart
// on the same directory, and check the recovered rankings byte for byte.
func serveSession(bin string, w workload, seed uint64, dir string) (*sessionResult, error) {
	res := &sessionResult{}
	ckpt := filepath.Join(dir, "ckpt")
	spawn := startWatch()
	d, err := startDaemon(bin, w, seed, dir, ckpt)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	ctl := newClient(1)
	if _, err := d.waitOK(ctl, "/healthz"); err != nil {
		return nil, err
	}
	res.setup = spawn.stop()
	ctl.CloseIdleConnections()

	var clientNS atomic.Int64 // client-observed latency of rankings, diff and status reads
	timedGet := func(c *http.Client, path string) (int, []byte, error) {
		t := time.Now()
		code, body, err := do(c, "GET", d.base+path)
		clientNS.Add(time.Since(t).Nanoseconds())
		return code, body, err
	}

	// Advancing phase: the writer keeps a fixed schedule; reads are due
	// every 1/readRate from the end of the first period until the writer
	// has finished, each timed from when it was due. Stopping with the
	// writer keeps the rest of the last period, when nothing runs, out of
	// wall_s.
	writer, reader := newClient(1), newClient(1)
	var published atomic.Int64
	var idle time.Duration // the writer's scheduled waits, excluded from wall
	t0 := time.Now()
	advancing := startWatch()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for day := 1; day <= w.days; day++ {
			idle += sleepUntil(t0.Add(time.Duration(day-1) * w.period))
			t := startWatch()
			code, _, err := do(writer, "POST", d.base+"/v1/advance?days=1")
			res.advance = append(res.advance, t.stop())
			res.tally.check(code, err, http.StatusOK, "advance")
			published.Store(int64(day))
			if day%w.ckptEvery == 0 || day == w.days {
				t := startWatch()
				code, _, err := do(writer, "POST", d.base+"/v1/checkpoint")
				res.checkpoint = append(res.checkpoint, t.stop())
				res.tally.check(code, err, http.StatusOK, "checkpoint")
			}
		}
		// A finished study refuses to advance further.
		code, _, err := do(writer, "POST", d.base+"/v1/advance?days=1")
		res.tally.check(code, err, http.StatusConflict, "advance after the last day")
	}()
	rng := rand.New(rand.NewPCG(seed, 1))
	interval := time.Duration(float64(time.Second) / w.readRate)
	var readNS []int64
reads:
	for due := t0.Add(w.period); ; due = due.Add(interval) {
		sleepUntil(due)
		select {
		case <-done:
			break reads
		default:
		}
		for published.Load() < 1 {
			time.Sleep(time.Millisecond)
		}
		sent := time.Now()
		path := readPath(rng, int(published.Load()))
		code, _, err := timedGet(reader, path)
		res.tally.check(code, err, http.StatusOK, path)
		readNS = append(readNS, time.Since(due).Nanoseconds())
		res.lateMS = append(res.lateMS, float64(sent.Sub(due))/1e6)
	}
	<-done
	// The open-loop reads are corrected by the steal over the whole
	// advancing phase: each is too short for its own tick reading.
	f := advancing.stop().Factor
	for _, ns := range readNS {
		res.reads = append(res.reads, timed{NS: ns, Factor: f})
	}
	res.build = sumTimed(res.advance)
	writer.CloseIdleConnections()
	reader.CloseIdleConnections()

	// Closed loop against the finished study: w.reads reads, back to back
	// on two connections.
	closed := newClient(2)
	var completed atomic.Int64
	var wg sync.WaitGroup
	loop := startWatch()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < w.reads/2; i++ {
				path := readPath(rng, w.days)
				code, _, err := timedGet(closed, path)
				if res.tally.check(code, err, http.StatusOK, path) {
					completed.Add(1)
				}
			}
		}(rand.New(rand.NewPCG(seed, uint64(2+g))))
	}
	wg.Wait()
	res.readLoop, res.readsDone = loop.stop(), int(completed.Load())

	// Evaluation: fetch the archive, every list on every day, in full.
	eval := startWatch()
	lists := providers.CanonicalOrder()
	bodies := make([][]byte, len(lists)*w.days)
	var next atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				path := fmt.Sprintf("/v1/rankings/%s?day=%d&k=0", lists[i/w.days], i%w.days)
				code, body, err := timedGet(closed, path)
				if res.tally.check(code, err, http.StatusOK, path) {
					bodies[i] = body
				}
			}
		}()
	}
	wg.Wait()
	h := sha256.New()
	for i, body := range bodies {
		var r struct{ Names []string }
		err := json.Unmarshal(body, &r)
		if res.tally.check(http.StatusOK, err, http.StatusOK, "decode archive ranking") {
			hashRanking(h, lists[i/w.days], i%w.days, r.Names)
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.eval = eval.stop()
	res.wall = spawn.stop()
	res.wall.NS -= idle.Nanoseconds()
	closed.CloseIdleConnections()

	// Server-side handler time for the same requests, from the sums (not
	// the quantiles) of toplistsd's own latency histograms.
	code, body, err := do(ctl, "GET", d.base+"/metrics")
	if res.tally.check(code, err, http.StatusOK, "/metrics") {
		var rep struct {
			Durations map[string]struct {
				TotalNS int64 `json:"total_ns"`
			}
		}
		if json.Unmarshal(body, &rep) == nil && clientNS.Load() > 0 {
			var server int64
			for _, route := range []string{"GET /v1/rankings/{list}", "GET /v1/diff", "GET /v1/status"} {
				server += rep.Durations["http.latency."+route].TotalNS
			}
			res.handlerShare = float64(server) / float64(clientNS.Load())
		}
	}
	ctl.CloseIdleConnections()

	// Crash and recover: the last day of every list must read back
	// byte-identical from the restarted process.
	killed := startWatch()
	u1 := d.kill()
	d2, err := startDaemon(bin, w, seed, dir, ckpt)
	if err != nil {
		return nil, err
	}
	defer d2.kill()
	ctl2 := newClient(1)
	ready, err := d2.waitOK(ctl2, "/readyz")
	if err != nil {
		return nil, err
	}
	res.recovery = []timed{killed.stop()}
	var rd struct{ Day int }
	err = json.Unmarshal(ready, &rd)
	if err == nil && rd.Day != w.days {
		err = fmt.Errorf("recovered day %d, newest generation is day %d", rd.Day, w.days)
	}
	res.tally.check(http.StatusOK, err, http.StatusOK, "recover newest generation")
	for i, list := range lists {
		code, body, err := do(ctl2, "GET", d2.base+fmt.Sprintf("/v1/rankings/%s?day=%d&k=0", list, w.days-1))
		if err == nil && code == http.StatusOK && !bytes.Equal(body, bodies[i*w.days+w.days-1]) {
			err = errors.New("differs from the ranking served before the kill")
		}
		res.tally.check(code, err, http.StatusOK, "recovered "+list)
	}
	ctl2.CloseIdleConnections()
	u2 := d2.kill()
	res.cpu = u1.cpu + u2.cpu
	res.rssMB = max(u1.rssMB, u2.rssMB)
	return res, nil
}

// serveSetup measures one launch of toplistsd on an empty checkpoint
// directory until /healthz answers.
func serveSetup(bin string, w workload, seed uint64, dir string) (timed, error) {
	spawn := startWatch()
	d, err := startDaemon(bin, w, seed, dir, filepath.Join(dir, "ckpt"))
	if err != nil {
		return timed{}, err
	}
	defer d.kill()
	c := newClient(1)
	defer c.CloseIdleConnections()
	if _, err := d.waitOK(c, "/healthz"); err != nil {
		return timed{}, err
	}
	return spawn.stop(), nil
}

// sleepUntil sleeps until t and returns how long it slept.
func sleepUntil(t time.Time) time.Duration {
	d := time.Until(t)
	if d <= 0 {
		return 0
	}
	time.Sleep(d)
	return d
}

// usage is one process's own resource usage.
type usage struct{ cpu, rssMB float64 }

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	return rusage(ru)
}

// selfUsage is this process's own usage so far (RUSAGE_SELF).
func selfUsage() usage {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return usage{}
	}
	return rusage(&ru)
}

func rusage(ru *syscall.Rusage) usage {
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu.Seconds(), rssMB: float64(ru.Maxrss) / 1024}
}
