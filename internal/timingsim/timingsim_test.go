package timingsim_test

import (
	"math"
	"testing"

	"teva/internal/cell"
	"teva/internal/logicsim"
	"teva/internal/netlist"
	"teva/internal/prng"
	"teva/internal/timingsim"
)

var lib = cell.Default()

// bufChain builds a single-input circuit through n buffers.
func bufChain(t *testing.T, n int) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("chain", lib, 3)
	x := b.InputNet()
	out := b.BufChain(x, n)
	b.Output(netlist.Bus{out})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// chainDelay sums the rise (or fall) path delay through the chain.
func chainDelay(n *netlist.Netlist, rise bool) float64 {
	var d float64
	for _, g := range n.Gates() {
		if rise {
			d += g.Delays[0].Rise
		} else {
			d += g.Delays[0].Fall
		}
	}
	return d
}

// laneRunner adapts the 64-lane WideFastSim to the scalar Runner
// interface: each Run times the one transition in lane 0, every other
// lane transition-free, and returns lane 0's Sample.
type laneRunner struct {
	wide      *timingsim.WideFastSim
	prev, cur []uint64
	sample    timingsim.Sample
}

func newLaneRunner(c *netlist.Compiled, scale float64) *laneRunner {
	return &laneRunner{
		wide: timingsim.NewWideFast(c, scale),
		prev: make([]uint64, len(c.Inputs)),
		cur:  make([]uint64, len(c.Inputs)),
	}
}

func (r *laneRunner) Run(prev, cur []bool, inputArrival, deadline float64) *timingsim.Sample {
	for i := range prev {
		r.prev[i], r.cur[i] = 0, 0
		if prev[i] {
			r.prev[i] = 1
		}
		if cur[i] {
			r.cur[i] = 1
		}
	}
	r.wide.Run(r.prev, r.cur, inputArrival, deadline)
	return r.wide.LaneSample(0, &r.sample)
}

func runners(n *netlist.Netlist, scale float64) map[string]timingsim.Runner {
	return map[string]timingsim.Runner{
		"wide":  newLaneRunner(n.Compiled(), scale),
		"exact": timingsim.NewExact(n.Compiled(), scale),
	}
}

func TestChainCapturesAfterPropagation(t *testing.T) {
	n := bufChain(t, 10)
	rise := chainDelay(n, true)
	for name, r := range runners(n, 1.0) {
		s := r.Run([]bool{false}, []bool{true}, 0, rise+1)
		if !s.Captured[0] || s.Violations != 0 {
			t.Fatalf("%s: generous deadline should capture the new value", name)
		}
		if math.Abs(s.WorstArrival-rise) > 1e-9 {
			t.Fatalf("%s: arrival %v want %v", name, s.WorstArrival, rise)
		}
	}
}

func TestChainTimingErrorCapturesOldValue(t *testing.T) {
	n := bufChain(t, 10)
	rise := chainDelay(n, true)
	for name, r := range runners(n, 1.0) {
		s := r.Run([]bool{false}, []bool{true}, 0, rise/2)
		if s.Captured[0] {
			t.Fatalf("%s: tight deadline should capture the old value", name)
		}
		if !s.Settled[0] {
			t.Fatalf("%s: settled value must be the new value", name)
		}
		if s.Violations != 1 {
			t.Fatalf("%s: expected 1 violation, got %d", name, s.Violations)
		}
	}
}

func TestNoTransitionNoError(t *testing.T) {
	n := bufChain(t, 10)
	for name, r := range runners(n, 1.0) {
		s := r.Run([]bool{true}, []bool{true}, 0, 0.001)
		if s.Violations != 0 || s.WorstArrival != 0 {
			t.Fatalf("%s: steady input must not produce violations", name)
		}
		if !s.Captured[0] || !s.Settled[0] {
			t.Fatalf("%s: wrong steady values", name)
		}
	}
}

func TestVoltageScaleInflatesDelay(t *testing.T) {
	n := bufChain(t, 10)
	rise := chainDelay(n, true)
	const scale = 1.26
	for name, r := range runners(n, scale) {
		s := r.Run([]bool{false}, []bool{true}, 0, timingsim.MaxDeadline)
		if math.Abs(s.WorstArrival-rise*scale) > 1e-9 {
			t.Fatalf("%s: scaled arrival %v want %v", name, s.WorstArrival, rise*scale)
		}
		// A deadline between nominal and scaled delay: fails only scaled.
		mid := rise * (1 + scale) / 2
		if s := r.Run([]bool{false}, []bool{true}, 0, mid); s.Violations != 1 {
			t.Fatalf("%s: undervolted run should miss deadline %v", name, mid)
		}
	}
	nominal := newLaneRunner(n.Compiled(), 1.0)
	if s := nominal.Run([]bool{false}, []bool{true}, 0, rise*(1+scale)/2); s.Violations != 0 {
		t.Fatal("nominal run should meet the mid deadline")
	}
}

func TestInputArrivalShiftsCapture(t *testing.T) {
	n := bufChain(t, 5)
	rise := chainDelay(n, true)
	for name, r := range runners(n, 1.0) {
		clkToQ := 85.0
		s := r.Run([]bool{false}, []bool{true}, clkToQ, timingsim.MaxDeadline)
		if math.Abs(s.WorstArrival-(clkToQ+rise)) > 1e-9 {
			t.Fatalf("%s: arrival %v want %v", name, s.WorstArrival, clkToQ+rise)
		}
	}
}

// rippleHarness builds a w-bit ripple adder with an exposed carry-out.
func rippleHarness(t *testing.T, w int) (*netlist.Netlist, netlist.Bus) {
	t.Helper()
	b := netlist.NewBuilder("ripple", lib, 4)
	x := b.Input(w)
	y := b.Input(w)
	cin := b.InputNet()
	sum, cout := b.RippleAdder(x, y, cin)
	outs := append(append(netlist.Bus{}, sum...), cout)
	b.Output(outs)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, outs
}

func TestCarryChainIsDataDependent(t *testing.T) {
	const w = 16
	n, _ := rippleHarness(t, w)
	mk := func(x, y, cin uint64) []bool {
		in := make([]bool, 2*w+1)
		logicsim.PackInputs(in, 0, w, x)
		logicsim.PackInputs(in, w, w, y)
		in[2*w] = cin == 1
		return in
	}
	for name, r := range runners(n, 1.0) {
		// Full carry propagation: 0xFFFF + 0, cin 0 -> 1. The Sample is
		// reused by the next Run, so copy the value out.
		long := r.Run(mk(0xFFFF, 0, 0), mk(0xFFFF, 0, 1), 0, timingsim.MaxDeadline).WorstArrival
		// LSB-only change with no carry chain: 0 + 0, cin 0 -> 1.
		short := r.Run(mk(0, 0, 0), mk(0, 0, 1), 0, timingsim.MaxDeadline).WorstArrival
		if long <= 2*short {
			t.Fatalf("%s: full carry chain (%v) should dwarf LSB-only (%v)",
				name, long, short)
		}
	}
}

func TestTimingErrorOnLongCarryOnly(t *testing.T) {
	const w = 16
	n, _ := rippleHarness(t, w)
	mk := func(x, y, cin uint64) []bool {
		in := make([]bool, 2*w+1)
		logicsim.PackInputs(in, 0, w, x)
		logicsim.PackInputs(in, w, w, y)
		in[2*w] = cin == 1
		return in
	}
	probe := newLaneRunner(n.Compiled(), 1.0).Run(mk(0xFFFF, 0, 0), mk(0xFFFF, 0, 1), 0, timingsim.MaxDeadline)
	deadline := probe.WorstArrival * 0.6
	for name, r := range runners(n, 1.0) {
		long := r.Run(mk(0xFFFF, 0, 0), mk(0xFFFF, 0, 1), 0, deadline)
		if long.Violations == 0 {
			t.Fatalf("%s: long carry chain should violate the tightened deadline", name)
		}
		short := r.Run(mk(0, 0, 0), mk(0, 0, 1), 0, deadline)
		if short.Violations != 0 {
			t.Fatalf("%s: short path must not violate", name)
		}
	}
}

func TestSettledMatchesFunctionalSim(t *testing.T) {
	const w = 12
	n, _ := rippleHarness(t, w)
	golden := logicsim.New(n.Compiled())
	src := prng.New(77)
	prev := make([]bool, 2*w+1)
	cur := make([]bool, 2*w+1)
	for name, r := range runners(n, 1.3) {
		for trial := 0; trial < 300; trial++ {
			for i := range prev {
				prev[i] = src.Bool()
				cur[i] = src.Bool()
			}
			s := r.Run(prev, cur, 0, timingsim.MaxDeadline)
			golden.Run(cur)
			for i, net := range n.Outputs() {
				if s.Settled[i] != golden.Value(net) {
					t.Fatalf("%s: settled bit %d wrong on trial %d", name, i, trial)
				}
				if s.Captured[i] != s.Settled[i] {
					t.Fatalf("%s: generous deadline must capture settled values", name)
				}
			}
		}
	}
}

func TestFastAgreesWithExactOnChainTopologies(t *testing.T) {
	// Without reconvergent fanout the levelized (wide) and event-driven
	// engines must agree exactly on captured values for any deadline.
	n := bufChain(t, 8)
	wide := newLaneRunner(n.Compiled(), 1.0)
	exact := timingsim.NewExact(n.Compiled(), 1.0)
	total := chainDelay(n, true)
	for _, frac := range []float64{0.1, 0.5, 0.9, 1.1} {
		deadline := total * frac
		sf := wide.Run([]bool{false}, []bool{true}, 0, deadline)
		se := exact.Run([]bool{false}, []bool{true}, 0, deadline)
		if sf.Captured[0] != se.Captured[0] {
			t.Fatalf("engines disagree at deadline fraction %v", frac)
		}
	}
}

func TestFastApproximatesExactOnAdder(t *testing.T) {
	const w = 10
	n, _ := rippleHarness(t, w)
	wide := newLaneRunner(n.Compiled(), 1.0)
	exact := timingsim.NewExact(n.Compiled(), 1.0)
	src := prng.New(123)
	prev := make([]bool, 2*w+1)
	cur := make([]bool, 2*w+1)
	var bits, disagreements int
	for trial := 0; trial < 400; trial++ {
		for i := range prev {
			prev[i] = src.Bool()
			cur[i] = src.Bool()
		}
		// A deadline in the contested region.
		probe := exact.Run(prev, cur, 0, timingsim.MaxDeadline)
		deadline := probe.WorstArrival * 0.7
		sf := wide.Run(prev, cur, 0, deadline)
		se := exact.Run(prev, cur, 0, deadline)
		for i := range sf.Captured {
			bits++
			if sf.Captured[i] != se.Captured[i] {
				disagreements++
			}
		}
	}
	// The deadline sits deliberately inside the contested settling window,
	// where the levelized engine's old-value assumption and the exact engine's
	// glitch-accurate capture legitimately differ; they must still agree
	// on the large majority of bits.
	if frac := float64(disagreements) / float64(bits); frac > 0.20 {
		t.Fatalf("wide/exact captured-bit disagreement %.3f exceeds 20%%", frac)
	}
}

func TestTogglesCounted(t *testing.T) {
	n := bufChain(t, 10)
	for name, r := range runners(n, 1.0) {
		s := r.Run([]bool{false}, []bool{true}, 0, timingsim.MaxDeadline)
		if s.Toggles != 10 {
			t.Fatalf("%s: toggles = %d, want 10", name, s.Toggles)
		}
		s = r.Run([]bool{true}, []bool{true}, 0, timingsim.MaxDeadline)
		if s.Toggles != 0 {
			t.Fatalf("%s: steady input toggles = %d", name, s.Toggles)
		}
	}
}

func TestExactFiltersGlitchesInertially(t *testing.T) {
	// x AND NOT(x) through a slow inverter produces a hazard pulse at the
	// AND gate; the inertial model must leave the steady-state output low
	// and the captured value low for a generous deadline.
	b := netlist.NewBuilder("glitch", lib, 6)
	x := b.InputNet()
	nx := b.BufChain(b.Not(x), 3) // delay the complement path
	y := b.And(x, nx)
	b.Output(netlist.Bus{y})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact := timingsim.NewExact(n.Compiled(), 1.0)
	s := exact.Run([]bool{false}, []bool{true}, 0, timingsim.MaxDeadline)
	if s.Captured[0] || s.Settled[0] {
		t.Fatal("glitch must not survive to a generous deadline")
	}
}

func TestErroneousHelper(t *testing.T) {
	s := &timingsim.Sample{}
	if s.Erroneous() {
		t.Fatal("zero violations should not be erroneous")
	}
	s.Violations = 2
	if !s.Erroneous() {
		t.Fatal("violations should be erroneous")
	}
}
