// Package timingsim simulates a netlist with annotated gate delays under a
// voltage corner. It is the "second instance" of the paper's dynamic
// timing analysis: the reduced-voltage gate-level simulation whose sampled
// outputs are compared with the golden run to detect timing errors.
//
// Each timing semantic has one engine, both running on the compiled flat
// IR (netlist.Compiled) with opcode dispatch:
//
//   - WideFastSim: levelized transition/arrival propagation, 64
//     independent transitions per circuit walk. For a late-arriving bit it
//     assumes the previous-cycle value is captured (the standard "old
//     value" timing-error model) and ignores glitch-induced wrong
//     captures. Used for all characterization campaigns; ShiftLanes turns
//     its 64 lanes into one serial transition history.
//   - ExactSim: event-driven simulation with inertial delays. Captures the
//     value every net holds at the capture deadline, including glitches.
//     Glitch handling is inherently serial (event order couples lanes),
//     so it times one transition per Run.
package timingsim

import (
	"math"

	"teva/internal/netlist"
)

// Sample is the outcome of simulating one input transition.
type Sample struct {
	// Captured holds, per primary output (in netlist output order), the
	// value latched at the capture deadline.
	Captured []bool
	// Settled holds, per primary output, the final steady-state value
	// (what a nominal-speed circuit would produce).
	Settled []bool
	// Arrival holds, per primary output, the time the output reached its
	// final value (0 when it never switched).
	Arrival []float64
	// WorstArrival is the maximum over Arrival.
	WorstArrival float64
	// Violations counts outputs whose captured value differs from the
	// settled value.
	Violations int
	// Toggles counts gate-output transitions during the run (a dynamic
	// energy proxy; Exact counts every event, the levelized engine counts
	// changed gates).
	Toggles int64
	// EnergyFJ is the dynamic energy of those transitions (sum of the
	// toggled gates' per-transition energies), femtojoules.
	EnergyFJ float64
}

// Erroneous reports whether any output captured a wrong value.
func (s *Sample) Erroneous() bool { return s.Violations > 0 }

// Clone returns an independent deep copy of the sample. Runner.Run
// returns an engine-owned Sample that the next Run overwrites; callers
// that need to keep a result past the next Run must Clone it (the
// sampleretain teva-vet analyzer flags retained Run results).
func (s *Sample) Clone() *Sample {
	c := *s
	c.Captured = append([]bool(nil), s.Captured...)
	c.Settled = append([]bool(nil), s.Settled...)
	c.Arrival = append([]float64(nil), s.Arrival...)
	return &c
}

// Runner is a timing engine bound to one netlist and corner.
type Runner interface {
	// Run simulates the transition from the prev input vector to cur.
	// Inputs switch at inputArrival (the register clock-to-Q time);
	// capture happens at deadline (CLK minus setup). The returned Sample
	// is valid until the next Run call.
	Run(prev, cur []bool, inputArrival, deadline float64) *Sample
}

// ---------------------------------------------------------------------------
// Exact engine

type event struct {
	time  float64
	seq   uint64 // global ordering tiebreak
	net   netlist.NetID
	value bool
	stamp uint32 // per-net validity stamp
}

// before is the heap ordering: earliest time first, global sequence number
// as the tiebreak. seq is unique per event, so the order is total and the
// pop sequence is independent of heap internals.
func (e event) before(o event) bool {
	//teva:allow floateq -- tie-break comparator: equal times fall through to seq
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventHeap is a typed binary min-heap of events. Unlike container/heap
// it moves concrete values — no interface boxing, so pushing an event
// allocates nothing once the backing array has grown to the run's
// high-water mark (it is reset with h = h[:0] between runs and its
// capacity reused).
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && q[r].before(q[kid]) {
			kid = r
		}
		if !q[kid].before(q[i]) {
			break
		}
		q[i], q[kid] = q[kid], q[i]
		i = kid
	}
	*h = q
	return top
}

// ExactSim is the event-driven engine with inertial delays.
type ExactSim struct {
	c          *netlist.Compiled
	scale      float64
	values     []bool
	atDeadline []bool
	lastChange []float64
	stamp      []uint32
	heap       eventHeap
	seq        uint64
	sample     Sample
}

// NewExact returns an exact engine for the compiled netlist at the given
// delay scale.
func NewExact(c *netlist.Compiled, scale float64) *ExactSim {
	s := &ExactSim{
		c:          c,
		scale:      scale,
		values:     make([]bool, c.NumNets),
		atDeadline: make([]bool, c.NumNets),
		lastChange: make([]float64, c.NumNets),
		stamp:      make([]uint32, c.NumNets),
	}
	outs := len(c.Outputs)
	s.sample = Sample{
		Captured: make([]bool, outs),
		Settled:  make([]bool, outs),
		Arrival:  make([]float64, outs),
	}
	return s
}

// settle evaluates the netlist functionally into values (steady state for
// the prev vector).
func (s *ExactSim) settle(inputs []bool) {
	c := s.c
	s.values[netlist.Const0] = false
	s.values[netlist.Const1] = true
	for i, net := range c.Inputs {
		s.values[net] = inputs[i]
	}
	vals := s.values
	in, stride := c.In, c.Stride
	for gi := 0; gi < c.NumGates; gi++ {
		base := gi * stride
		vals[c.Out[gi]] = c.Op[gi].Eval(vals[in[base]], vals[in[base+1]], vals[in[base+2]])
	}
}

// scheduleGate re-evaluates gate gi at time t following a change on one of
// its inputs and schedules the resulting output event (inertial rule: a
// newer evaluation supersedes any pending event on the output).
func (s *ExactSim) scheduleGate(gi, changedPin int32, t float64) {
	c := s.c
	base := int(gi) * c.Stride
	in := c.In
	v := c.Op[gi].Eval(s.values[in[base]], s.values[in[base+1]], s.values[in[base+2]])
	out := netlist.NetID(c.Out[gi])
	// Supersede any pending event for this net.
	s.stamp[out]++
	if v == s.values[out] {
		return // pulse filtered (or no change)
	}
	var d float64
	if v {
		d = c.Rise[base+int(changedPin)]
	} else {
		d = c.Fall[base+int(changedPin)]
	}
	s.seq++
	s.heap.push(event{
		time:  t + d*s.scale,
		seq:   s.seq,
		net:   out,
		value: v,
		stamp: s.stamp[out],
	})
}

// Run implements Runner.
func (s *ExactSim) Run(prev, cur []bool, inputArrival, deadline float64) *Sample {
	c := s.c
	if len(prev) != len(c.Inputs) || len(cur) != len(c.Inputs) {
		panic("timingsim: input width mismatch")
	}
	s.settle(prev)
	for i := range s.lastChange {
		s.lastChange[i] = 0
		s.stamp[i] = 0
	}
	s.heap = s.heap[:0]
	s.seq = 0

	// Primary-input transitions at inputArrival.
	for i, net := range c.Inputs {
		if cur[i] != prev[i] {
			s.seq++
			s.stamp[net]++
			s.heap.push(event{
				time:  inputArrival,
				seq:   s.seq,
				net:   net,
				value: cur[i],
				stamp: s.stamp[net],
			})
		}
	}

	snapshotTaken := false
	var toggles int64
	var energy float64
	for len(s.heap) > 0 {
		e := s.heap.pop()
		if e.stamp != s.stamp[e.net] {
			continue // superseded
		}
		if !snapshotTaken && e.time > deadline {
			copy(s.atDeadline, s.values)
			snapshotTaken = true
		}
		if s.values[e.net] == e.value {
			continue
		}
		s.values[e.net] = e.value
		s.lastChange[e.net] = e.time
		if d := c.Driver[e.net]; d >= 0 {
			toggles++ // count gate-output transitions only, as Fast does
			energy += c.Energy[d]
		}
		for j := c.FanOff[e.net]; j < c.FanOff[e.net+1]; j++ {
			s.scheduleGate(c.FanGate[j], c.FanPin[j], e.time)
		}
	}
	if !snapshotTaken {
		copy(s.atDeadline, s.values)
	}

	sm := &s.sample
	sm.WorstArrival = 0
	sm.Violations = 0
	sm.Toggles = toggles
	sm.EnergyFJ = energy
	for i, net := range c.Outputs {
		sm.Settled[i] = s.values[net]
		sm.Captured[i] = s.atDeadline[net]
		sm.Arrival[i] = s.lastChange[net]
		if sm.Arrival[i] > sm.WorstArrival {
			sm.WorstArrival = sm.Arrival[i]
		}
		if sm.Captured[i] != sm.Settled[i] {
			sm.Violations++
		}
	}
	return sm
}

// MaxDeadline is a deadline so large no path misses it; used to obtain
// pure settling behaviour.
const MaxDeadline = math.MaxFloat64 / 4
