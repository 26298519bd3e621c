package main

import (
	"bytes"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"teva/internal/campaign"
	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/obs"
)

// span is one timed call from the benchmark into a pipeline layer.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for none
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced iteration in memory. The
// benchmark's calls are sequential, so a stack gives each span its
// parent. A nil tracer records nothing.
type tracer struct {
	base  time.Time
	spans []span
	stack []int
	// instr is the dynamic instruction count of the captured traces.
	instr int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: t.now()})
	t.stack = append(t.stack, i)
	return func() {
		t.spans[i].EndNS = t.now()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

func (t *tracer) addInstr(n int64) {
	if t != nil {
		t.instr += n
	}
}

// seconds sums the durations of the spans with the given name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// runtimeSample is the Go runtime's allocation and GC totals.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// layerRecorder brackets one traced timed region: obs registry deltas,
// runtime totals and a CPU profile.
type layerRecorder struct {
	reg     *obs.Registry
	before  obs.Snapshot
	rt      runtimeSample
	profile bytes.Buffer
}

func startLayers(reg *obs.Registry) (*layerRecorder, error) {
	l := &layerRecorder{reg: reg, before: reg.Snapshot(), rt: readRuntime()}
	if err := pprof.StartCPUProfile(&l.profile); err != nil {
		return nil, err
	}
	return l, nil
}

// layerReport is the per-layer view of one traced iteration.
type layerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// SelfCPU is the profile's CPU seconds for every package, not only
	// the ones published as metrics.
	SelfCPU map[string]float64 `json:"self_cpu_s"`
	Spans   []span             `json:"spans"`
	Obs     obs.Snapshot       `json:"-"`
	Profile []byte             `json:"-"`
}

// stop ends the region and derives the per-layer metrics. wall is the
// region's wall time; r holds the spans and the benchmark's own DTA
// counts.
func (l *layerRecorder) stop(r *run, wall time.Duration) (*layerReport, error) {
	pprof.StopCPUProfile()
	rt := readRuntime()
	after := l.reg.Snapshot()
	self, err := selfCPUByLayer(l.profile.Bytes())
	if err != nil {
		return nil, err
	}
	counter := func(name string) float64 {
		return float64(after.Counter(name) - l.before.Counter(name))
	}
	phase := func(path string) float64 {
		return float64(phaseNanos(after, path)-phaseNanos(l.before, path)) / 1e9
	}
	m := map[string]float64{}
	var expTotal float64
	for _, name := range expNames() {
		s := r.tr.seconds("exp." + name)
		m["exp."+name+".wall_s"] = s
		expTotal += s
	}
	m["exp.coverage"] = ratio(expTotal, wall.Seconds())
	m["fpu.build_s"] = r.tr.seconds("fpu.build")

	capture := r.tr.seconds("trace.capture")
	m["trace.capture_s"] = capture
	m["trace.sim_minstr_per_s"] = ratio(float64(r.tr.instr)/1e6, capture)

	busy := phase("dta") + r.dta.busy.Seconds()
	pairs := counter(dta.MetricPairs) + float64(r.dta.pairs)
	m["dta.busy_s"] = busy
	m["dta.pairs"] = pairs
	m["dta.pairs_per_s"] = ratio(pairs, busy)
	m["dta.cycles_analyzed"] = counter(dta.MetricCycles) + float64(r.dta.cycles)
	m["dta.faulty_ratio"] = ratio(counter(dta.MetricViolations)+float64(r.dta.faulty), pairs)

	for _, layer := range profiledLayers {
		m[layer+".self_cpu_s"] = self[layer]
	}

	runs := counter(campaign.MetricRuns)
	cbusy := phase("campaign")
	m["campaign.busy_s"] = cbusy
	m["campaign.runs"] = runs
	m["campaign.runs_per_s"] = ratio(runs, cbusy)
	m["campaign.single_injection_ratio"] = ratio(exactlyOne(after, l.before), runs)
	m["campaign.masked_ratio"] = ratio(counter(campaign.MetricOutcomeMasked), runs)

	m["runtime.alloc_gb"] = (rt.allocBytes - l.rt.allocBytes) / 1e9
	m["runtime.gc_cycles"] = rt.gcCycles - l.rt.gcCycles
	m["runtime.gc_cpu_s"] = rt.gcCPU - l.rt.gcCPU
	return &layerReport{Metrics: m, SelfCPU: self, Spans: r.tr.spans, Obs: after, Profile: l.profile.Bytes()}, nil
}

// profiledLayers are the packages whose self CPU time is published.
var profiledLayers = []string{"timingsim", "logicsim", "dta", "cpu", "errmodel", "sta", unattributed}

// expNames are the spans the quick workload records: every experiment
// plus the shared campaign matrix.
func expNames() []string { return append(experiments.Names(), "campaigns") }

func phaseNanos(s obs.Snapshot, path string) int64 {
	for _, p := range s.Phases {
		if p.Path == path {
			return p.Nanos
		}
	}
	return 0
}

// exactlyOne is the number of campaign runs that injected exactly one
// error: the histogram bucket whose bound is 1.
func exactlyOne(after, before obs.Snapshot) float64 {
	count := func(s obs.Snapshot) int64 {
		for _, h := range s.Histograms {
			if h.Name != campaign.MetricInjectionsPerRun {
				continue
			}
			for i, b := range h.Bounds {
				if b == 1 { //teva:allow floateq -- bucket bounds are exact small integers
					return h.Counts[i]
				}
			}
		}
		return 0
	}
	return float64(count(after) - count(before))
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
