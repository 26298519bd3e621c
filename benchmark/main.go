// Command teva-bench is the repository's benchmark. It drives the TEVA
// pipeline (workload trace -> gate-level DTA -> DA/IA/WA error models ->
// CPU-model injection campaigns -> report) through its public Go entry
// points, one batch workload per invocation:
//
//	teva-bench --workload quick --seed 0xF00D --seconds 15 --trace 0
//
// Each iteration builds a fresh substrate (set-up), then runs the
// workload's job (the timed region); iterations repeat until --seconds
// have passed. The last line of standard output is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Every job's result digest is printed to standard error and checked
// against pins.json for the seeds pinned there; every iteration of a run
// must also reproduce the first iteration's digest. run.sh builds and
// runs it from the root of a checkout.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"teva/internal/core"
	"teva/internal/obs"
)

// processStart stands in for the process start time: package variables
// are initialized before main, within milliseconds of exec.
var processStart = time.Now()

//go:embed pins.json
var pinsJSON []byte

// pins maps workload -> seed (as %#x) -> result digest.
type pins map[string]map[string]string

type metricDef struct{ name, unit string }

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, name := range expNames() {
		defs = append(defs, metricDef{"exp." + name + ".wall_s", "s"})
	}
	defs = append(defs,
		metricDef{"exp.coverage", "ratio"},
		metricDef{"fpu.build_s", "s"},
		metricDef{"trace.capture_s", "s"},
		metricDef{"trace.sim_minstr_per_s", "Minstr/s"},
		metricDef{"dta.busy_s", "s"},
		metricDef{"dta.pairs", "count"},
		metricDef{"dta.pairs_per_s", "1/s"},
		metricDef{"dta.cycles_analyzed", "count"},
		metricDef{"dta.faulty_ratio", "ratio"},
	)
	for _, layer := range profiledLayers {
		defs = append(defs, metricDef{layer + ".self_cpu_s", "s"})
	}
	return append(defs,
		metricDef{"campaign.busy_s", "s"},
		metricDef{"campaign.runs", "count"},
		metricDef{"campaign.runs_per_s", "1/s"},
		metricDef{"campaign.single_injection_ratio", "ratio"},
		metricDef{"campaign.masked_ratio", "ratio"},
		metricDef{"runtime.alloc_gb", "GB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_s", "s"},
		metricDef{"bench.trace_overhead_s", "s"},
		metricDef{"fail_ratio", "ratio"},
	)
}

// params configure one measurement.
type params struct {
	seed    uint64
	seconds time.Duration
	// start is when the first iteration's set-up began: process start
	// for the command, the call for tests.
	start  time.Time
	traced bool
	sizes  sizes
	pins   pins
	// traceDir receives the traced run's spans, layer table and CPU
	// profile; "" writes nothing.
	traceDir string
	log      io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// digest is the first iteration's result digest.
	digest string
}

func main() {
	name := flag.String("workload", "quick", "workload: quick, characterize, history or campaign")
	seedArg := flag.String("seed", "0xF00D", "workload seed (core.Config.Seed); 0 is the default seed")
	seconds := flag.Int("seconds", 15, "measure for this many seconds (at least three iterations)")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans and profile")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	seed, err := strconv.ParseUint(*seedArg, 0, 64)
	if err != nil {
		fail(fmt.Errorf("bad --seed: %w", err))
	}
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		fail(fmt.Errorf("pins.json: %w", err))
	}
	res, err := measure(w, params{
		seed:     seed,
		seconds:  time.Duration(*seconds) * time.Second,
		start:    processStart,
		traced:   *traced == 1,
		sizes:    quickSizes(),
		pins:     p,
		traceDir: *traceDir,
		log:      os.Stderr,
	})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "teva-bench: %v\n", err)
	os.Exit(2)
}

// iteration is one set-up plus timed job.
type iteration struct {
	setup, wall, cpu time.Duration
	peakRSS          float64 // MB, set-up and job
	out              outcome
	layers           *layerReport // traced iterations only
}

// minIterations makes every median drop at least one outlier, such as
// the first iteration of a fresh process, whose caches and heap start
// cold.
const minIterations = 3

// An untraced run's setup_s is the median of at least minSetups set-up
// times, with at least setupSeconds of set-ups after the iterations.
const (
	minSetups    = 7
	setupSeconds = time.Second
)

// measure runs iterations of w until p.seconds have passed, with at least
// minIterations, and reduces them to the result line. A traced run alternates
// untraced and traced iterations: per-layer metrics come from the traced
// ones, and the difference of the two kinds' median wall time is the
// tracing overhead.
func measure(w workload, p params) (*result, error) {
	if p.seed == 0 {
		p.seed = core.DefaultConfig().Seed
	}
	if p.start.IsZero() {
		p.start = time.Now()
	}
	seedKey := fmt.Sprintf("%#x", p.seed)
	pin, pinned := p.pins[w.name][seedKey]
	loopStart := time.Now()
	var its []iteration
	res := &result{}
	for i := 0; ; i++ {
		traceThis := p.traced && i%2 == 1
		it, err := runIteration(w, p, traceThis, i == 0)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		res.Attempted += it.out.attempted
		res.Failed += it.out.failed
		if it.out.err != nil {
			fmt.Fprintf(p.log, "%s iteration %d: %v\n", w.name, i, it.out.err)
		}
		status := "not pinned"
		switch {
		case pinned && it.out.digest != pin:
			status = "MISMATCH with pin " + pin
			res.Failed++
		case pinned:
			status = "matches pin"
		}
		if i == 0 {
			res.digest = it.out.digest
		} else if it.out.digest != res.digest {
			status += "; differs from iteration 0"
			res.Failed++
		}
		if err := checkCoverage(w.name, it.layers); err != nil {
			status += "; " + err.Error()
			res.Failed++
		}
		fmt.Fprintf(p.log, "%s seed=%s iteration %d: setup %.3fs wall %.3fs cpu %.3fs peak %.1fMB digest %s (%s)\n",
			w.name, seedKey, i, it.setup.Seconds(), it.wall.Seconds(), it.cpu.Seconds(), it.peakRSS, it.out.digest, status)
		// Return the iteration's memory to the OS so the next one's peak
		// RSS starts from the same floor.
		debug.FreeOSMemory()
		if i+1 >= minIterations && time.Since(loopStart) >= p.seconds {
			break
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if p.traced {
		var err error
		res.Metrics, err = tracedMetrics(w, p, its, res)
		return res, err
	}
	// Set-up is short beside the job on most workloads, and a few short
	// windows are easily swung by host noise: time further set-ups until
	// there are minSetups and they have taken setupSeconds.
	var extra []float64
	for begin := time.Now(); len(its)+len(extra) < minSetups || time.Since(begin) < setupSeconds; {
		t0 := time.Now()
		if _, err := setUp(w, p, newRegistry(), nil); err != nil {
			return nil, err
		}
		extra = append(extra, time.Since(t0).Seconds())
		fmt.Fprintf(p.log, "%s seed=%s extra set-up: %.3fs\n", w.name, seedKey, extra[len(extra)-1])
	}
	res.Metrics = untracedMetrics(its, extra)
	return res, nil
}

// minCoverage is the share of a traced quick iteration's wall time that
// its exp.* spans must cover for the per-experiment attribution to hold.
const minCoverage = 0.95

// checkCoverage fails a traced quick iteration whose experiment spans
// cover less than minCoverage of its timed wall time. Other workloads and
// untraced iterations (l nil) have no experiment spans to check.
func checkCoverage(workload string, l *layerReport) error {
	if workload != "quick" || l == nil {
		return nil
	}
	if c := l.Metrics["exp.coverage"]; c < minCoverage {
		return fmt.Errorf("exp.* spans cover %.3f of the timed wall, below %.2f", c, minCoverage)
	}
	return nil
}

// runIteration does one set-up and one timed job. The first iteration's
// set-up is timed from p.start.
func runIteration(w workload, p params, traced, first bool) (iteration, error) {
	var it iteration
	start := time.Now()
	if first {
		start = p.start
	} else {
		resetPeakRSS()
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	reg := newRegistry()
	r, err := setUp(w, p, reg, tr)
	if err != nil {
		return it, err
	}
	it.setup = time.Since(start)

	var rec *layerRecorder
	if traced {
		if rec, err = startLayers(reg); err != nil {
			return it, err
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	end := tr.begin(w.name)
	it.out = w.job(r)
	end()
	it.wall = time.Since(t0)
	it.cpu = cpuTime() - cpu0
	it.peakRSS = peakRSSMB()
	if traced {
		if it.layers, err = rec.stop(r, it.wall); err != nil {
			return it, err
		}
	}
	return it, nil
}

// setUp builds a fresh run of w: the substrate, the environment and the
// workload's own set-up. It then collects the set-up garbage so the timed
// region does not pay for it.
func setUp(w workload, p params, reg *obs.Registry, tr *tracer) (*run, error) {
	r, err := newRun(p.sizes, p.seed, reg, tr)
	if err != nil {
		return nil, err
	}
	if w.prepare != nil {
		end := tr.begin("setup." + w.name)
		err := w.prepare(r)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	runtime.GC()
	return r, nil
}

// newRegistry is the obs registry every iteration attaches to
// core.Config.Metrics, as teva-experiments does, so untraced iterations
// pay the production cost of counters, phases and histograms too.
func newRegistry() *obs.Registry {
	base := time.Now()
	return obs.NewRegistry(func() int64 { return int64(time.Since(base)) })
}

func untracedMetrics(its []iteration, extraSetups []float64) map[string]metricValue {
	setup := extraSetups
	var wall, cpu, rss []float64
	for _, it := range its {
		setup = append(setup, it.setup.Seconds())
		wall = append(wall, it.wall.Seconds())
		cpu = append(cpu, it.cpu.Seconds())
		rss = append(rss, it.peakRSS)
	}
	return map[string]metricValue{
		"setup_s":     {median(setup), "s"},
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
}

func tracedMetrics(w workload, p params, its []iteration, res *result) (map[string]metricValue, error) {
	var plain, traced []float64
	var last *layerReport
	for _, it := range its {
		if it.layers == nil {
			plain = append(plain, it.wall.Seconds())
			continue
		}
		traced = append(traced, it.wall.Seconds())
		last = it.layers
	}
	out := map[string]metricValue{}
	for _, d := range perLayer() {
		var vs []float64
		for _, it := range its {
			if it.layers != nil {
				vs = append(vs, it.layers.Metrics[d.name])
			}
		}
		out[d.name] = metricValue{median(vs), d.unit}
	}
	out["bench.trace_overhead_s"] = metricValue{median(traced) - median(plain), "s"}
	out["fail_ratio"] = metricValue{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if p.traceDir != "" && last != nil {
		if err := writeTrace(p.traceDir, w.name, p.seed, last); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeTrace writes the last traced iteration's spans, per-package CPU
// table, layer metrics, obs snapshot and CPU profile.
func writeTrace(dir, name string, seed uint64, l *layerReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%#x", name, seed))
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".obs.json", l.Obs.JSON(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".pprof", l.Profile, 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) from the
// current RSS, so each iteration's peak is measured on its own. Linux
// supports it since 4.0; elsewhere the peak stays the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS,
// or since process start where VmHWM cannot be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64); err == nil {
					return v / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
