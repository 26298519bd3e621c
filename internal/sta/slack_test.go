package sta_test

import (
	"math"
	"testing"

	"teva/internal/cell"
	"teva/internal/netlist"
	"teva/internal/sta"
	"teva/internal/vscale"
)

// wideCircuit builds a circuit with one wide level: 700 parallel XORs
// feeding a reduction tree, with the XOR outputs also exposed as
// endpoints so they carry both endpoint and through-path slack.
func wideCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("wide", lib, 11)
	b.SetUnit("wide")
	const w = 700
	x := b.Input(w)
	y := b.Input(w)
	z := b.XorBus(x, y)
	red := b.ReduceXor(z)
	b.Output(append(append(netlist.Bus{}, z...), red))
	return b.MustBuild()
}

func TestEndpointSlackMatchesEndpointDelay(t *testing.T) {
	// At an endpoint net with no further fanout, the backward pass carries
	// toEnd = 0, so NetSlack must reduce to clk - EndpointDelay exactly.
	n := adder(t, 16)
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	clk := r.WorstDelay * 1.2
	for i, out := range n.Outputs() {
		got := r.NetSlack(out, clk)
		want := clk - r.EndpointDelay[i]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("endpoint %d: NetSlack %v, clk-EndpointDelay %v", i, got, want)
		}
	}
}

func TestMinNetSlackEqualsWorstPathSlack(t *testing.T) {
	// The minimum per-net slack is attained on the critical path and must
	// equal the worst-path slack clk - WorstDelay (the report's WNS).
	for _, n := range []*netlist.Netlist{adder(t, 16), wideCircuit(t)} {
		c := n.Compiled()
		r := sta.Analyze(c, clkToQ, setup)
		clk := r.WorstDelay * 1.1
		min := math.Inf(1)
		finite := 0
		for net := 0; net < c.NumNets; net++ {
			if s := r.NetSlack(netlist.NetID(net), clk); !math.IsInf(s, 1) {
				finite++
				if s < min {
					min = s
				}
			}
		}
		if finite == 0 {
			t.Fatalf("%s: no net carries finite slack", c.Name)
		}
		// Forward and backward partial sums associate differently along the
		// critical path, so equality holds to rounding, not bitwise.
		if math.Abs(min-(clk-r.WorstDelay)) > 1e-6 {
			t.Fatalf("%s: min net slack %v, worst-path slack %v",
				c.Name, min, clk-r.WorstDelay)
		}
		if wns := r.WNS(clk); wns != clk-r.WorstDelay {
			t.Fatalf("%s: WNS %v, want %v", c.Name, wns, clk-r.WorstDelay)
		}
	}
}

func TestRequiredArrivalSlackIdentity(t *testing.T) {
	n := wideCircuit(t)
	c := n.Compiled()
	r := sta.Analyze(c, clkToQ, setup)
	clk := r.WorstDelay // zero-margin clock: critical nets have ~0 slack
	for net := 0; net < c.NumNets; net++ {
		id := netlist.NetID(net)
		s := r.NetSlack(id, clk)
		req, arr := r.Required(id, clk), r.Arrival(id)
		if math.IsInf(s, 1) {
			if !math.IsInf(req, 1) && math.IsInf(arr, -1) == false {
				t.Fatalf("net %d: infinite slack but finite required %v and arrival %v", net, req, arr)
			}
			continue
		}
		if math.Abs(s-(req-arr)) > 1e-9 {
			t.Fatalf("net %d: slack %v != required-arrival %v", net, s, req-arr)
		}
	}
}

func TestFailingEndpoints(t *testing.T) {
	n := adder(t, 8)
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	if got := r.FailingEndpoints(r.WorstDelay); got != 0 {
		t.Fatalf("%d endpoints fail at the zero-margin clock", got)
	}
	if got := r.FailingEndpoints(r.WorstDelay * 0.5); got == 0 {
		t.Fatal("no endpoint fails at half the required clock")
	}
}

func TestAnalyzeCornerDerates(t *testing.T) {
	n := adder(t, 12)
	c := n.Compiled()
	nom := sta.Analyze(c, clkToQ, setup)

	// The nominal corner derates by exactly 1, which is IEEE-exact: the
	// report must be bitwise identical to plain Analyze.
	atNom := sta.AnalyzeCorner(c, clkToQ, setup, cell.Nominal())
	if atNom.Corner != "nominal" || atNom.Derate != 1 {
		t.Fatalf("nominal corner report: corner=%q derate=%v", atNom.Corner, atNom.Derate)
	}
	if math.Float64bits(atNom.WorstDelay) != math.Float64bits(nom.WorstDelay) {
		t.Fatal("nominal corner WorstDelay differs from Analyze")
	}
	for net := 0; net < c.NumNets; net++ {
		id := netlist.NetID(net)
		if math.Float64bits(atNom.Arrival(id)) != math.Float64bits(nom.Arrival(id)) {
			t.Fatalf("nominal corner arrival differs at net %d", net)
		}
	}

	// A reduced-voltage corner inflates every delay uniformly, so the worst
	// delay scales by the derate (to rounding; the per-pin products
	// accumulate in a different order than one final multiply).
	m := vscale.Default45nm()
	vr15 := cell.AtReduction("VR15", m, 0.15)
	scale := vr15.Derate()
	if scale <= 1 {
		t.Fatalf("VR15 derate %v, want > 1", scale)
	}
	r := sta.AnalyzeCorner(c, clkToQ, setup, vr15)
	if r.Corner != "VR15" || r.Derate != scale {
		t.Fatalf("corner report: corner=%q derate=%v want VR15/%v", r.Corner, r.Derate, scale)
	}
	if math.Abs(r.WorstDelay-scale*nom.WorstDelay) > 1e-6*r.WorstDelay {
		t.Fatalf("VR15 WorstDelay %v, want ~%v", r.WorstDelay, scale*nom.WorstDelay)
	}
	// A slow hot corner compounds with voltage.
	hotSlow := cell.Corner{Name: "hot-slow", Voltage: vr15.Voltage, TempC: 85, Process: 1.05}
	if hs := hotSlow.Derate(); hs <= scale {
		t.Fatalf("hot-slow derate %v not above VR15's %v", hs, scale)
	}
	rHS := sta.AnalyzeCorner(c, clkToQ, setup, hotSlow)
	if rHS.WorstDelay <= r.WorstDelay {
		t.Fatalf("hot-slow WorstDelay %v not above VR15's %v", rHS.WorstDelay, r.WorstDelay)
	}
}

func TestClockPeriodEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ClockPeriod(nil) did not panic")
		}
	}()
	sta.ClockPeriod(nil, 1.0)
}
