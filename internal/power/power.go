// Package power performs gate-level dynamic power analysis of the
// generated units, substituting for the Cadence Voltus step of the
// paper's flow (Section IV-B.1). Energy comes from switching activity:
// operand streams are driven through the netlists with the timing engine
// counting every gate-output transition weighted by the cell's
// per-transition energy.
//
// The analysis backs two of the paper's observations: floating-point
// operations "emerge as a major contributor to the energy consumption
// (>30%)" of FP-heavy workloads, and dynamic energy scales with the
// square of the supply voltage (the saving undervolting buys).
package power

import (
	"teva/internal/alu"
	"teva/internal/fpu"
	"teva/internal/logicsim"
	"teva/internal/prng"
	"teva/internal/timingsim"
	"teva/internal/trace"
	"teva/internal/vscale"
)

// Profile holds the characterized per-operation dynamic energies at the
// nominal corner, in femtojoules.
type Profile struct {
	// PerOp is the mean dynamic energy of one FPU instruction, across
	// all pipeline stages (iterated stages counted per cycle).
	PerOp [fpu.NumOps]float64
	// IntOp is the mean dynamic energy of one integer ALU operation
	// (ALU + AGU activity), the per-instruction baseline of the core
	// model.
	IntOp float64
	// FPUGates and IntGates are the unit sizes.
	FPUGates, IntGates int
}

// Characterize measures per-op energies by driving `samples` random
// operand pairs per instruction through the gate-level units.
func Characterize(f *fpu.FPU, intU *alu.Unit, samples int, seed uint64) *Profile {
	if samples < 2 {
		samples = 2
	}
	src := prng.New(seed)
	p := &Profile{FPUGates: f.NumGates(), IntGates: intU.NumGates()}
	for _, op := range fpu.Ops() {
		n := samples
		if op == fpu.DDiv || op == fpu.SDiv {
			n = samples/8 + 2
		}
		p.PerOp[op] = opEnergy(f, op, n, src.Split())
	}
	p.IntOp = intEnergy(intU, samples, src.Split())
	return p
}

// opEnergy runs back-to-back operations through every pipeline stage,
// accumulating switching energy. Consecutive operations ride consecutive
// lanes of one 64-lane walk per expanded cycle; timingsim.ShiftLanes
// gives each the previous operation's stage input as its transition
// source, exactly as a one-operation-at-a-time walk would.
func opEnergy(f *fpu.FPU, op fpu.Op, samples int, src *prng.Source) float64 {
	pipe := f.Pipeline(op)
	w := op.OperandWidth()
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<uint(w) - 1
	}
	// The engines keep no state across Runs and run strictly cycle by
	// cycle, so stage repeats share one engine per distinct stage on one
	// scratch sized for the widest netlist. Per expanded cycle: the
	// stage's engine, its input words and its lane-shift carry.
	maxNets, maxIn := 0, 0
	for _, s := range pipe.Stages {
		maxNets = max(maxNets, s.N.Compiled().NumNets)
		maxIn = max(maxIn, len(s.N.Inputs()))
	}
	ws := timingsim.NewWideScratch(maxNets)
	var sims []*timingsim.WideFastSim
	var words, carry [][]uint64
	for _, s := range pipe.Stages {
		sim := timingsim.NewWideFastShared(s.N.Compiled(), 1.0, ws)
		for r := 0; r < s.Repeat; r++ {
			sims = append(sims, sim)
			words = append(words, make([]uint64, len(s.N.Inputs())))
			carry = append(carry, make([]uint64, len(s.N.Inputs())))
		}
	}
	prev := make([]uint64, maxIn)
	var total float64
	var counted int
	for lo := 0; lo < samples; lo += 64 {
		n := min(64, samples-lo)
		var rowsA, rowsB [64]uint64
		for lane := 0; lane < n; lane++ {
			rowsA[lane], rowsB[lane] = src.Uint64()&mask, src.Uint64()&mask
		}
		// Rank-0 input words: operand A's bits, then B's, then zeros.
		in := words[0]
		clear(in)
		logicsim.Transpose64(&rowsA)
		copy(in[:w], rowsA[:w])
		if op.NumOperands() == 2 {
			logicsim.Transpose64(&rowsB)
			copy(in[w:2*w], rowsB[:w])
		}
		var opEnergy [64]float64
		for ci, sim := range sims {
			cur := words[ci]
			timingsim.ShiftLanes(prev, cur, carry[ci], n)
			sm := sim.Run(prev[:len(cur)], cur, 0, timingsim.MaxDeadline)
			for lane := 0; lane < n; lane++ {
				opEnergy[lane] += sm.EnergyFJ[lane]
			}
			if ci+1 < len(sims) {
				copy(words[ci+1], sm.Settled)
			}
		}
		for lane := 0; lane < n; lane++ {
			if lo+lane > 0 { // the first op warms the pipeline from the zero state
				total += opEnergy[lane]
				counted++
			}
		}
	}
	return total / float64(counted)
}

// intEnergy measures the integer side: an ALU add plus an AGU add per
// operation (the dominant per-instruction switching of the core model),
// 64 consecutive operations per walk as in opEnergy.
func intEnergy(u *alu.Unit, samples int, src *prng.Source) float64 {
	aluSim := timingsim.NewWideFast(u.ALU.Compiled(), 1.0)
	aguSim := timingsim.NewWideFast(u.AGU.Compiled(), 1.0)
	nALU, nAGU := len(u.ALU.Inputs()), len(u.AGU.Inputs())
	aluIn, aluPrev, aluCarry := make([]uint64, nALU), make([]uint64, nALU), make([]uint64, nALU)
	aguIn, aguPrev, aguCarry := make([]uint64, nAGU), make([]uint64, nAGU), make([]uint64, nAGU)
	var total float64
	var counted int
	for lo := 0; lo < samples; lo += 64 {
		n := min(64, samples-lo)
		clear(aluIn)
		clear(aguIn)
		for lane := 0; lane < n; lane++ {
			bit := uint64(1) << uint(lane)
			for j := 0; j < 64; j++ { // operands only; function code stays add
				if src.Bool() {
					aluIn[j] |= bit
				}
			}
			for j := range aguIn {
				if src.Bool() {
					aguIn[j] |= bit
				}
			}
		}
		timingsim.ShiftLanes(aluPrev, aluIn, aluCarry, n)
		timingsim.ShiftLanes(aguPrev, aguIn, aguCarry, n)
		aluE := aluSim.Run(aluPrev, aluIn, 0, timingsim.MaxDeadline).EnergyFJ
		aguE := aguSim.Run(aguPrev, aguIn, 0, timingsim.MaxDeadline).EnergyFJ
		for lane := 0; lane < n; lane++ {
			if lo+lane > 0 {
				total += aluE[lane] + aguE[lane]
				counted++
			}
		}
	}
	return total / float64(counted)
}

// Breakdown is the estimated energy split of one workload execution.
type Breakdown struct {
	// FPUEnergyFJ and IntEnergyFJ are the dynamic energy totals.
	FPUEnergyFJ, IntEnergyFJ float64
	// FPUShare is the FPU's fraction of the total.
	FPUShare float64
	// TotalFJ is the whole-run dynamic energy at nominal voltage.
	TotalFJ float64
}

// WorkloadBreakdown combines the profile with a workload trace: every
// FPU-datapath instruction pays its characterized energy; every other
// instruction pays the integer baseline.
func (p *Profile) WorkloadBreakdown(tr *trace.Trace) Breakdown {
	var b Breakdown
	var fpInstr int64
	for op, count := range tr.OpCounts {
		b.FPUEnergyFJ += float64(count) * p.PerOp[op]
		fpInstr += count
	}
	b.IntEnergyFJ = float64(tr.TotalInstr-fpInstr) * p.IntOp
	b.TotalFJ = b.FPUEnergyFJ + b.IntEnergyFJ
	if b.TotalFJ > 0 {
		b.FPUShare = b.FPUEnergyFJ / b.TotalFJ
	}
	return b
}

// AtVoltage scales a nominal-corner energy to a reduced supply using the
// quadratic dynamic-energy law.
func AtVoltage(energyFJ float64, m vscale.Model, supply float64) float64 {
	return energyFJ * m.DynamicPowerRatio(supply)
}
