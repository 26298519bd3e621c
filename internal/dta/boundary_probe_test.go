package dta

import (
	"context"
	"testing"

	"teva/internal/fpu"
	"teva/internal/obs"
	"teva/internal/vscale"
)

// TestProbeShardBoundaryAtStress pins the exact shard handoff: a sharded
// stream's records must equal the serial (workers=1) stream's for every
// op, corner and fan-out, although a shard's cold warm-up can capture a
// different value than the serial history did (fp-div.d at VR20 does
// with a one-pair warm-up). The 1.4× stress corner makes such mismatches
// common even after the multi-pair warm-up, so the re-run path is
// exercised. The serial wide stream is the reference for both engines,
// so the fast engine is also held to bit-exact agreement with it. 1000
// workers clamps to one pair per shard, every boundary a handoff. Every
// shard costs an analyzer and its warm-up walks, which the race detector
// slows ~13×, so -short (the race pass) keeps the fan-outs small; it
// still fails without the handoff (fp-div.d VR20, 2 workers).
func TestProbeShardBoundaryAtStress(t *testing.T) {
	n, fanouts := 300, []int{2, 3, 64, 1000}
	if testing.Short() {
		n, fanouts = 100, []int{2, 3, 8}
	}
	corners := []struct {
		name  string
		scale float64
	}{
		{vscale.VR15.Name, testModel.ScaleFor(vscale.VR15)},
		{vscale.VR20.Name, testModel.ScaleFor(vscale.VR20)},
		{"stress-1.4", 1.4},
	}
	reruns := int64(0)
	for _, op := range []fpu.Op{fpu.DMul, fpu.DAdd, fpu.DSub, fpu.DDiv} {
		pairs := randPairs(op, n, 47)
		for _, c := range corners {
			serial := stream(t, op, c.scale, EngineWide, pairs, 1)
			for _, eng := range []Engine{EngineWide, EngineFast} {
				for _, workers := range fanouts {
					m := obs.NewRegistry(nil)
					got, err := AnalyzeStream(context.Background(), testFPU, op, c.scale, eng, pairs, workers, m)
					if err != nil {
						t.Fatal(err)
					}
					reruns += m.Counter(MetricShardReruns).Value()
					for i := range serial {
						if got[i] != serial[i] {
							t.Fatalf("%s %s engine=%s workers=%d: record %d diverges from serial:\n  serial  %+v\n  sharded %+v",
								op, c.name, eng, workers, i, serial[i], got[i])
						}
					}
				}
			}
		}
	}
	// The matrix is only a test of the handoff if some boundary needed it.
	if reruns == 0 {
		t.Fatal("no shard was re-run: the matrix never exercised a boundary mismatch")
	}
}
