package power

import (
	"math"
	"testing"

	"teva/internal/alu"
	"teva/internal/cell"
	"teva/internal/fpu"
	"teva/internal/trace"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

var (
	testFPU *fpu.FPU
	testALU *alu.Unit
	testPro *Profile
)

func setup(t testing.TB) *Profile {
	t.Helper()
	if testPro != nil {
		return testPro
	}
	lib := cell.Default()
	f, err := fpu.New(lib, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	u, err := alu.New(lib, 0xA10)
	if err != nil {
		t.Fatal(err)
	}
	testFPU, testALU = f, u
	testPro = Characterize(f, u, 40, 5)
	return testPro
}

func TestPerOpEnergiesPositiveAndOrdered(t *testing.T) {
	p := setup(t)
	for _, op := range fpu.Ops() {
		if p.PerOp[op] <= 0 {
			t.Fatalf("%s energy %v", op, p.PerOp[op])
		}
	}
	// The double multiplier swings the largest datapath; the iterative
	// divider runs the most cycles. Both dwarf a conversion.
	if p.PerOp[fpu.DMul] <= p.PerOp[fpu.DI2F] {
		t.Fatalf("dmul %v should exceed i2f %v", p.PerOp[fpu.DMul], p.PerOp[fpu.DI2F])
	}
	if p.PerOp[fpu.DDiv] <= p.PerOp[fpu.DAdd] {
		t.Fatalf("ddiv %v should exceed dadd %v", p.PerOp[fpu.DDiv], p.PerOp[fpu.DAdd])
	}
	// Double precision costs more than single.
	if p.PerOp[fpu.DMul] <= p.PerOp[fpu.SMul] {
		t.Fatal("dmul should exceed smul")
	}
	// Any FPU op dwarfs an integer op.
	if p.PerOp[fpu.DAdd] <= p.IntOp {
		t.Fatalf("dadd %v should exceed integer op %v", p.PerOp[fpu.DAdd], p.IntOp)
	}
	if p.IntOp <= 0 || p.FPUGates == 0 || p.IntGates == 0 {
		t.Fatalf("profile incomplete: %+v", p)
	}
}

func TestWorkloadBreakdownFPShare(t *testing.T) {
	p := setup(t)
	w, err := workloads.ByName("srad_v1", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(w, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := p.WorkloadBreakdown(tr)
	if b.TotalFJ <= 0 || b.FPUEnergyFJ <= 0 || b.IntEnergyFJ <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
	// The paper cites FP as a major (>30%) energy contributor for
	// FP-heavy codes; srad is the most FP-intensive benchmark.
	if b.FPUShare < 0.3 {
		t.Fatalf("srad FPU energy share %.2f below 30%%", b.FPUShare)
	}
	if b.FPUShare >= 1 {
		t.Fatalf("FPU share %v must be a fraction", b.FPUShare)
	}
}

func TestAtVoltageQuadratic(t *testing.T) {
	m := vscale.Default45nm()
	e := AtVoltage(100, m, m.VddNominal)
	if e != 100 {
		t.Fatalf("nominal scaling %v", e)
	}
	e = AtVoltage(100, m, 0.88)
	if e <= 50 || e >= 100 {
		t.Fatalf("VR20 energy %v out of band", e)
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	p := setup(t)
	p2 := Characterize(testFPU, testALU, 40, 5)
	for op := range p.PerOp {
		if p.PerOp[op] != p2.PerOp[op] {
			t.Fatal("characterization not reproducible")
		}
	}
}

// TestCharacterizeBitPins pins every characterized energy bit for bit, at
// sample counts that fill 64-lane batches partially (40), with a
// one-operation tail (65) and with a two-operation tail (130). The values
// were recorded with a one-operation-per-walk scalar levelized engine, so
// they hold the batched walk to the serial transition history and the
// serial summation order.
func TestCharacterizeBitPins(t *testing.T) {
	setup(t)
	pins := []struct {
		samples int
		perOp   [fpu.NumOps]uint64
		intOp   uint64
	}{
		{40, [fpu.NumOps]uint64{
			0x409e4ae1ce1ce1cf, 0x409de6f42f42f430, 0x40c1fd5555555550, 0x40d3269444444446,
			0x4071f5c8dc8dc8de, 0x407c9b7237237236, 0x408aeb5d35d35d36, 0x408b14ad4ad4ad4a,
			0x40a0d4e1ce1ce1ce, 0x40b13eaaaaaaaaaa, 0x407136eeeeeeeeef, 0x407994a2ca2ca2cb,
		}, 0x407efc2f42f42f45},
		{65, [fpu.NumOps]uint64{
			0x409de5f66666666a, 0x409db0a666666666, 0x40c1ef843333332e, 0x40d3317555555557,
			0x4072049333333334, 0x407bf78666666666, 0x408a79999999999a, 0x408b16b333333332,
			0x40a0b70b33333333, 0x40b0fb2d82d82d83, 0x407118b99999999a, 0x40797aecccccccce,
		}, 0x407f27acccccccce},
		{130, [fpu.NumOps]uint64{
			0x409de581c93a5822, 0x409dc57c3abdb7c2, 0x40c1dff85c14a381, 0x40d33c8d8d8d8d90,
			0x4072067ca058e7ca, 0x407c70f47d6b8f47, 0x408b116ebc2156eb, 0x408b6b6c5a7e36c4,
			0x40a061b431372b43, 0x40b0c5b636363637, 0x40712c83c542483e, 0x407969fc07f01fc3,
		}, 0x407f6e10ab75e10b},
	}
	for _, pin := range pins {
		p := Characterize(testFPU, testALU, pin.samples, 5)
		for op, want := range pin.perOp {
			if got := math.Float64bits(p.PerOp[op]); got != want {
				t.Errorf("samples=%d %s: energy bits %#016x (%v), want %#016x (%v)",
					pin.samples, fpu.Op(op), got, p.PerOp[op], want, math.Float64frombits(want))
			}
		}
		if got := math.Float64bits(p.IntOp); got != pin.intOp {
			t.Errorf("samples=%d int op: energy bits %#016x (%v), want %#016x (%v)",
				pin.samples, got, p.IntOp, pin.intOp, math.Float64frombits(pin.intOp))
		}
	}
}
