package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinySizes shrinks every knob so that each workload runs in about a
// second; the outputs are checked for determinism, not against the pins.
func tinySizes() sizes {
	s := quickSizes()
	s.opts.Runs = 2
	s.opts.Fig4Paths = 20
	s.opts.Fig6Full = 256
	s.opts.Fig6Ks = []int{64, 128}
	s.opts.Fig6Reps = 1
	s.cfg.RandomOperands = 256
	s.cfg.WorkloadOperands = 128
	s.cfg.DASample = 1000
	return s
}

func tinyParams(traced bool) params {
	return params{sizes: tinySizes(), traced: traced, log: io.Discard}
}

// TestWorkloadsEmitMetrics runs every workload of BENCHMARK.json at tiny
// size, untraced and traced, and checks that each named metric is
// emitted with its unit and that the run is correct. Under -short only
// the cheapest workload runs.
func TestWorkloadsEmitMetrics(t *testing.T) {
	s := loadSpec(t)
	for _, sw := range s.Workloads {
		if testing.Short() && sw.Name != "characterize" {
			continue
		}
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := measure(w, tinyParams(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, name, got.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, name := range []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestPinMismatchFails proves the digest check fires: a corrupted pin
// fails every iteration, and the true digest passes.
func TestPinMismatchFails(t *testing.T) {
	w, err := workloadByName("characterize")
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams(false)
	p.seed = 7
	first, err := measure(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Correct || first.digest == "" {
		t.Fatalf("unpinned run: correct=%v digest=%q", first.Correct, first.digest)
	}

	p.pins = pins{"characterize": {"0x7": first.digest}}
	res, err := measure(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("true pin: correct=%v failed=%d", res.Correct, res.Failed)
	}

	p.pins = pins{"characterize": {"0x7": "0" + first.digest[1:]}}
	if first.digest[0] == '0' {
		p.pins["characterize"]["0x7"] = "1" + first.digest[1:]
	}
	res, err = measure(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < minIterations {
		t.Errorf("corrupted pin: correct=%v failed=%d, want a failure per iteration", res.Correct, res.Failed)
	}
}

// TestCheckCoverage proves the attribution check fires on quick alone.
func TestCheckCoverage(t *testing.T) {
	report := func(c float64) *layerReport {
		return &layerReport{Metrics: map[string]float64{"exp.coverage": c}}
	}
	for _, tc := range []struct {
		workload string
		l        *layerReport
		fails    bool
	}{
		{"quick", report(0.999), false},
		{"quick", report(0.5), true},
		{"quick", nil, false},
		{"characterize", report(0), false},
	} {
		if err := checkCoverage(tc.workload, tc.l); (err != nil) != tc.fails {
			t.Errorf("checkCoverage(%s, %v) = %v, want failure %v", tc.workload, tc.l, err, tc.fails)
		}
	}
}

// TestPinsCoverDefaultSeed keeps a pin for every workload at the
// default seed.
func TestPinsCoverDefaultSeed(t *testing.T) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		if p[w.name]["0xf00d"] == "" {
			t.Errorf("pins.json: no pin for %s at seed 0xf00d", w.name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"teva/internal/timingsim.(*WideFastSim).Run":     "timingsim",
		"teva/internal/dta.AnalyzeStreamCtx.func1":       "dta",
		"teva/internal/experiments.(*memo[go.shape]).do": "experiments",
		"runtime.mallocgc":                               "",
		"main.main":                                      "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSelfCPUDecodesProfile decodes a real CPU profile of this process.
func TestSelfCPUDecodesProfile(t *testing.T) {
	rec, err := startLayers(nil)
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	pprof.StopCPUProfile()
	self, err := selfCPUByLayer(rec.profile.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if self[unattributed] <= 0 {
		t.Errorf("busy loop outside teva/internal not charged to %s: %v (x=%d)", unattributed, self, x)
	}
}
