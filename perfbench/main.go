// Command perfbench is the repository benchmark. One run starts bsmpd as
// a child process on loopback, drives one named workload at it from this
// process over at most nproc connections, checks every answer, and
// prints the workload's metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root through run.sh, which builds
// bsmpd and this program from the checkout:
//
//	bash perfbench/run.sh --workload run-multi --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: scrapes of the daemon's
// public counters around the untraced load, plus an in-process traced
// re-execution of the workload's requests. README.md lists the
// workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bsmp/internal/serve"
)

func main() {
	workload := flag.String("workload", "", "workload: run-multi, run-hot, sweep-grid or uni-blocked")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Float64("seconds", 10, "length of the measured interval")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	bin := flag.String("bsmpd", "", "bsmpd binary built from this checkout")
	flag.Parse()
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bsmpd, -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	sp, pl, err := newPlan(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	decl := endToEndMetrics
	if *trace == 1 {
		decl = perLayerMetrics
	}
	b := &bench{spec: sp, plan: pl, seconds: *seconds, traced: *trace == 1, bin: *bin,
		conns: runtime.NumCPU(), m: newMetrics(decl)}
	out, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stamp, _ := json.Marshal(hostStamp())
	fmt.Printf("# %s seed=%d seconds=%g trace=%d host=%s\n", sp.name, *seed, *seconds, *trace, stamp)
	for _, d := range b.m.decl {
		v := b.m.vals[d.name]
		fmt.Printf("# %-34s %14.6g %-6s %s\n", d.name, v.Value, v.Unit, b.m.notes[d.name])
	}
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run.
type bench struct {
	spec    *spec
	plan    *plan
	seconds float64
	traced  bool
	bin     string
	conns   int
	m       *metrics
	notes   []string

	// warmed maps each set-up tuple to the daemon's answer.
	warmed map[string]*serve.RunResponse
	// sweeps collects per-sweep work/span figures in traced runs.
	sweeps []sweepShape
}

// setups is how many times an untraced run sets the daemon up; setup_s
// is their median.
const setups = 3

func (b *bench) run(ctx context.Context) (*output, error) {
	c := newClient(b.conns)
	n := setups
	if b.traced {
		n = 1
	}
	var (
		d      *daemon
		setupS []float64
	)
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, b.bin, b.spec.memoCap, c); err != nil {
			return nil, err
		}
		if err := b.setUp(ctx, c, d); err != nil {
			d.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.stop()

	var before, after map[string]json.RawMessage
	if b.traced {
		if err := getJSON(ctx, c, d.base, "/metrics", &struct{ Bsmp *map[string]json.RawMessage }{&before}); err != nil {
			return nil, err
		}
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssC := make(chan rssSamples, 1)
	go func() {
		mb, err := d.sampleRSS(stopRSS)
		rssC <- rssSamples{mb, err}
	}()
	start := time.Now()
	var results []*result
	if b.spec.rate > 0 {
		results = openLoopRun(ctx, c, d.base, b.plan.next)
	} else {
		var sweepHook func(*result) error
		if b.traced && b.spec.name == "sweep-grid" {
			sweepHook = func(r *result) error { return b.sweepShape(ctx, c, d.base, r) }
		}
		results, err = closedLoopRun(ctx, c, d.base, b.plan.next, b.seconds, b.spec.group, sweepHook)
	}
	window := time.Since(start).Seconds()
	close(stopRSS)
	rss := <-rssC
	if err != nil {
		return nil, err
	}
	cpu1, err1 := d.cpuSeconds()
	hwm, err2 := d.statusMB("VmHWM")
	if err := errors.Join(err1, err2, rss.err); err != nil {
		return nil, err
	}
	if b.traced {
		if err := getJSON(ctx, c, d.base, "/metrics", &struct{ Bsmp *map[string]json.RawMessage }{&after}); err != nil {
			return nil, err
		}
	}
	d.stop()

	out := &output{Correct: true}
	completed, ok, bad := b.account(results, out)
	if bad != nil {
		out.Correct = false
		b.notes = append(b.notes, "CORRECTNESS: "+bad.Error())
	}
	if !b.traced {
		b.endToEnd(results, setupS, window, cpu1-cpu0, rss.mb, hwm, completed, ok, out.Attempted)
		if err := verify(ctx, b.sample(results, verifySample)); err != nil && out.Correct {
			out.Correct = false
			b.notes = append(b.notes, "CORRECTNESS: "+err.Error())
		}
	} else {
		b.loadLayers(results, window, before, after)
		if err := b.inProcess(ctx, results); err != nil {
			out.Correct = false
			b.notes = append(b.notes, "CORRECTNESS: "+err.Error())
		}
	}
	if miss := b.m.missing(); len(miss) > 0 && out.Correct {
		return nil, fmt.Errorf("metrics not measured: %v", miss)
	}
	out.Metrics = b.m.vals
	return out, nil
}

// rssSamples is the outcome of daemon.sampleRSS.
type rssSamples struct {
	mb  []float64
	err error
}

// verifySample is how many served answers an untraced run recomputes in
// process.
const verifySample = 6

// setUp checks the pinned goldens through a fresh daemon, then sends the
// workload's warm-up requests over all of the client's connections and
// keeps each answer.
func (b *bench) setUp(ctx context.Context, c *http.Client, d *daemon) error {
	if err := checkGoldens(ctx, c, d.base); err != nil {
		return err
	}
	warm := b.plan.warm
	got := make([]*result, len(warm))
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(warm); i = int(next.Add(1) - 1) {
				req := warm[i]
				got[i] = do(ctx, c, d.base, op{run: &req})
			}
		}()
	}
	wg.Wait()
	b.warmed = make(map[string]*serve.RunResponse, len(warm))
	for i, r := range got {
		if r.err != nil {
			return fmt.Errorf("set-up %s: %w", tupleKey(warm[i]), r.err)
		}
		b.warmed[tupleKey(warm[i])] = r.run
	}
	return nil
}

// hostStamp identifies where, on what and from which source a result was
// measured: the git commit when the checkout is a repository, and always
// a SHA-256 over the checkout's Go sources and module files.
func hostStamp() map[string]any {
	host, _ := os.Hostname()
	commit := "none"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "source_sha256": sourceHash(),
	}
}

// sourceHash hashes every .go and go.mod file under the working
// directory, skipping hidden directories such as .git and .bench_build.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != ".":
			return filepath.SkipDir
		case e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod"):
			return nil
		}
		b, err := os.ReadFile(path)
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
