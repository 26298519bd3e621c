package dta

import (
	"bytes"
	"encoding/json"
	"testing"

	"teva/internal/fpu"
	"teva/internal/logicsim"
	"teva/internal/timingsim"
	"teva/internal/vscale"
)

// TestEngineAndLaneCountInvariance is the batching contract: the wide
// engine must produce records identical to a one-pair-at-a-time serial
// oracle — Golden, Faulty and Mask — for every batch granularity and
// worker fan-out, because the lane-shift carry replays the exact serial
// transition history regardless of how the stream is chopped. A failure
// here means batch boundaries leak into results.
func TestEngineAndLaneCountInvariance(t *testing.T) {
	for _, op := range []fpu.Op{fpu.DAdd, fpu.DMul} {
		pairs := randPairs(op, 200, 0xC0FFEE)
		scale := testModel.ScaleFor(vscale.VR20)
		ref := serialOracle(testFPU, op, scale, pairs)

		// Wide engine at varying batch sizes (lane occupancies 1..64).
		for _, batch := range []int{1, 4, 64} {
			w := New(testFPU, op, scale, EngineWide)
			got := make([]Record, len(pairs))
			for lo := 0; lo < len(pairs); lo += batch {
				hi := min(lo+batch, len(pairs))
				w.AnalyzeBatch(pairs[lo:hi], got[lo:hi])
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: wide batch=%d diverges at record %d:\n  serial %+v\n  wide   %+v",
						op, batch, i, ref[i], got[i])
				}
			}
		}

		// Full stream path at varying worker counts.
		for _, workers := range []int{1, 4, 64} {
			got := stream(t, op, scale, EngineWide, pairs, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: workers=%d diverges at record %d:\n  ref %+v\n  got %+v",
						op, workers, i, ref[i], got[i])
				}
			}
		}
	}
}

// serialOracle analyzes pairs strictly one at a time with the history
// held explicitly: every expanded pipeline cycle keeps the input vector
// it saw last, and each instruction times that cycle's WideFastSim on
// lane 0 alone (every other lane zero on both sides, so transition-free)
// from that previous input to the new one. Golden results come from the
// scalar functional simulator. It shares no code with the Analyzer's
// batching or timingsim.ShiftLanes; like the Analyzer, it warms a cold
// pipeline with the first pair before recording.
func serialOracle(f *fpu.FPU, op fpu.Op, scale float64, pairs []Pair) []Record {
	pipe := f.Pipeline(op)
	var golden []*logicsim.Sim
	var faulty []*timingsim.WideFastSim
	var prevIn [][]bool
	for _, s := range pipe.Stages {
		for r := 0; r < s.Repeat; r++ {
			golden = append(golden, logicsim.New(s.N.Compiled()))
			faulty = append(faulty, timingsim.NewWideFast(s.N.Compiled(), scale))
			prevIn = append(prevIn, make([]bool, len(s.N.Inputs())))
		}
	}
	lib := pipe.Stages[0].N.Lib
	inputArrival := lib.ClockToQ * scale
	deadline := f.CLK - lib.Setup*scale
	w := op.OperandWidth()
	pack := func(p Pair) []bool {
		in := make([]bool, len(pipe.Stages[0].N.Inputs()))
		logicsim.PackInputs(in, 0, w, p.A)
		if op.NumOperands() == 2 {
			logicsim.PackInputs(in, w, w, p.B)
		}
		return in
	}
	lane0 := func(v []bool) []uint64 {
		words := make([]uint64, len(v))
		for i, b := range v {
			if b {
				words[i] = 1
			}
		}
		return words
	}
	step := func(p Pair) Record {
		rec := Record{A: p.A, B: p.B}
		in := pack(p)
		for _, g := range golden {
			g.Run(in)
			in = g.Outputs(nil)
		}
		rec.Golden = logicsim.UnpackOutputs(in, 0, op.ResultWidth())
		in = pack(p)
		for ci, sim := range faulty {
			sm := sim.Run(lane0(prevIn[ci]), lane0(in), inputArrival, deadline)
			prevIn[ci] = in
			in = make([]bool, len(sm.Captured))
			for oi, word := range sm.Captured {
				in[oi] = word&1 != 0
			}
		}
		rec.Faulty = logicsim.UnpackOutputs(in, 0, op.ResultWidth())
		rec.Mask = rec.Golden ^ rec.Faulty
		return rec
	}
	recs := make([]Record, len(pairs))
	if len(pairs) > 0 {
		step(pairs[0])
	}
	for i, p := range pairs {
		recs[i] = step(p)
	}
	return recs
}

// TestAnalyzeBatchSteadyStateAllocs pins the DTA hot loop's
// zero-allocation invariant: once an analyzer is warm, streaming batches
// through it allocates nothing, for the wide engine and for the exact
// engine's scalar previous-input path alike. The event-driven engine
// costs far more per pair, so it streams a shorter batch.
func TestAnalyzeBatchSteadyStateAllocs(t *testing.T) {
	op := fpu.DAdd
	scale := testModel.ScaleFor(vscale.VR20)
	for _, eng := range []Engine{EngineWide, EngineExact} {
		n := 64
		if eng == EngineExact {
			n = 8
		}
		pairs := randPairs(op, n, 0xA110C)
		recs := make([]Record, len(pairs))
		a := New(testFPU, op, scale, eng)
		a.AnalyzeBatch(pairs, recs) // warm: history primed, buffers touched
		avg := testing.AllocsPerRun(20, func() {
			a.AnalyzeBatch(pairs, recs)
		})
		if avg != 0 {
			t.Errorf("engine=%s: AnalyzeBatch allocates %.1f objects per call, want 0", eng, avg)
		}
	}
}

// TestEmptyStreamSummaryDeterministic guards the degenerate no-records
// path: summarizing an empty stream must not divide by zero (NaN ratios
// would poison downstream JSON) and must serialize byte-identically run
// to run.
func TestEmptyStreamSummaryDeterministic(t *testing.T) {
	recs := stream(t, fpu.DAdd, testModel.ScaleFor(vscale.VR20), EngineWide, nil, 4)
	if len(recs) != 0 {
		t.Fatalf("empty stream produced %d records", len(recs))
	}
	s := Summarize(fpu.DAdd, recs)
	if got := s.ErrorRatio(); got != 0 {
		t.Errorf("empty ErrorRatio = %v, want 0", got)
	}
	if got := s.MultiBitFraction(); got != 0 {
		t.Errorf("empty MultiBitFraction = %v, want 0", got)
	}
	for i, b := range s.BER() {
		if b != 0 {
			t.Errorf("empty BER[%d] = %v, want 0", i, b)
		}
	}
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(Summarize(fpu.DAdd, stream(t, fpu.DAdd, testModel.ScaleFor(vscale.VR20), EngineWide, nil, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("empty-stream summaries not byte-identical:\n%s\n%s", first, again)
	}
}
