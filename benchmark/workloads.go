package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"teva/internal/core"
	"teva/internal/errmodel"
	"teva/internal/experiments"
	"teva/internal/obs"
	"teva/internal/vscale"
)

// sizes are the knobs of one workload instance: the -quick preset for
// measurement, or a tiny variant for the benchmark's own test.
type sizes struct {
	opts experiments.Options
	cfg  core.Config
}

// quickSizes is exactly what teva-experiments -quick runs.
func quickSizes() sizes {
	s := sizes{opts: experiments.DefaultOptions()}
	experiments.ApplyPreset(true, false, &s.opts, &s.cfg)
	return s
}

// levels are the paper's two voltage-reduction levels. They differ in
// the share of FPU gates with negative slack (4.4% at VR15, 7.1% at
// VR20), which is what the slack-pruned DTA walk would exploit.
var levels = []vscale.VRLevel{vscale.VR15, vscale.VR20}

// run is one set-up instance of a workload: a fresh framework and
// environment, so nothing is memoized across timed iterations.
type run struct {
	f   *core.Framework
	env *experiments.Env
	tr  *tracer // nil when untraced
	// dta accumulates DTA work that runs without an obs registry and so
	// must be counted from the inputs (HistoryAblation).
	dta dtaTally
}

// dtaTally is DTA work counted by the benchmark itself.
type dtaTally struct {
	pairs, cycles, faulty int64
	busy                  time.Duration
}

// outcome is what one timed job produced.
type outcome struct {
	attempted, failed int
	digest            string
	err               error
}

// op records one public call: an error fails it.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if o.err == nil {
			o.err = err
		}
		return false
	}
	return true
}

// workload is one benchmark workload. prepare is the set-up beyond
// core.New; job is the timed region.
type workload struct {
	name    string
	prepare func(r *run) error
	job     func(r *run) outcome
}

var allWorkloads = []workload{
	{name: "quick", job: quickJob},
	{name: "characterize", job: characterizeJob},
	{name: "history", job: historyJob},
	{name: "campaign", prepare: buildModels, job: campaignJob},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// newRun builds the substrate (the FPU build and calibration in core.New)
// and a fresh environment.
func newRun(sz sizes, seed uint64, reg *obs.Registry, tr *tracer) (*run, error) {
	cfg := sz.cfg
	cfg.Seed = seed
	cfg.Metrics = reg
	end := tr.begin("fpu.build")
	f, err := core.New(cfg)
	end()
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	return &run{f: f, env: experiments.NewEnv(f, sz.opts), tr: tr}, nil
}

// quickJob is teva-experiments -quick without an artifact store, with
// the report written to memory. The digest covers the report bytes.
func quickJob(r *run) outcome {
	var o outcome
	var out bytes.Buffer
	var end func()
	err := experiments.RunSuite(r.env, experiments.SuiteConfig{
		OnStart: func(name string) { end = r.tr.begin("exp." + name) },
		OnExperiment: func(name string, err error) {
			end()
			o.op(err)
		},
	}, &out)
	if err != nil && o.failed == 0 {
		o.op(err)
	}
	o.digest = digestOf(out.Bytes())
	return o
}

// characterizeJob is model development alone: trace capture for every
// workload, then the DA, IA and WA models at both levels. 64-lane
// batched DTA does nearly all the work. The digest covers
// errmodel.Marshal of every model.
func characterizeJob(r *run) outcome {
	var o outcome
	h := sha256.New()
	ws, err := r.env.Workloads()
	if !o.op(err) {
		return o
	}
	for _, w := range ws {
		end := r.tr.begin("trace.capture")
		tr, err := r.env.Trace(w)
		end()
		if o.op(err) {
			r.tr.addInstr(tr.TotalInstr)
		}
	}
	model := func(m errmodel.Model, err error) {
		var b []byte
		if err == nil {
			b, err = errmodel.Marshal(m)
		}
		if o.op(err) {
			h.Write(b)
		}
	}
	for _, level := range levels {
		end := r.tr.begin("model.da")
		da, err := r.env.DAModel(level)
		end()
		model(da, err)
		end = r.tr.begin("model.ia")
		ia, err := r.env.IAModelErr(level)
		end()
		model(ia, err)
		for _, w := range ws {
			end = r.tr.begin("model.wa_summaries")
			_, err := r.env.WASummaries(level, w)
			end()
			if !o.op(err) {
				continue
			}
			end = r.tr.begin("model.wa")
			wa, err := r.env.WAModel(level, w)
			end()
			model(wa, err)
		}
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o
}

// historyJob is the pipeline-history ablation at both levels: the only
// production path that walks DTA one pair at a time. The digest covers
// the rows' exact float bits.
func historyJob(r *run) outcome {
	var o outcome
	h := sha256.New()
	for _, level := range levels {
		end := r.tr.begin("history." + level.Name)
		t0 := time.Now()
		rows, err := experiments.HistoryAblation(r.env, level)
		r.dta.busy += time.Since(t0)
		end()
		if !o.op(err) {
			continue
		}
		for _, row := range rows {
			fmt.Fprintf(h, "%s %s %016x %016x\n", level.Name, row.Op,
				math.Float64bits(row.WithHistory), math.Float64bits(row.FixedHistory))
			r.dta.addHistory(r.f, r.f.Cfg.RandomOperands, row)
		}
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o
}

// addHistory counts one HistoryAblation row's DTA work from its inputs:
// each of the two arms analyzes the same n pairs of the row's op (n as
// HistoryAblation derives it from RandomOperands). Its DTA calls carry
// no obs registry, so this is the only way to see them.
func (t *dtaTally) addHistory(f *core.Framework, randomOperands int, row experiments.HistoryRow) {
	n := int64(max(randomOperands/2, 200))
	var repeat int64
	for _, s := range f.FPU.Pipeline(row.Op).Stages {
		repeat += int64(s.Repeat)
	}
	t.pairs += 2 * n
	t.cycles += 2 * n * repeat
	t.faulty += int64(math.Round(row.WithHistory*float64(n))) +
		int64(math.Round(row.FixedHistory*float64(n)))
}

// buildModels is the campaign workload's set-up: every DA/IA/WA model the
// 42-cell matrix needs, so no DTA runs in the timed region.
func buildModels(r *run) error {
	ws, err := r.env.Workloads()
	if err != nil {
		return err
	}
	for _, level := range levels {
		if _, err := r.env.DAModel(level); err != nil {
			return err
		}
		if _, err := r.env.IAModelErr(level); err != nil {
			return err
		}
		for _, w := range ws {
			if _, err := r.env.WAModel(level, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// campaignJob is the paper's single-injection matrix (7 workloads x 3
// model kinds x 2 levels). The CPU model does nearly all the work. The
// digest covers every cell's outcomes in matrix order.
func campaignJob(r *run) outcome {
	var o outcome
	end := r.tr.begin("campaign.matrix")
	cs, err := experiments.RunCampaigns(r.env)
	end()
	if !o.op(err) {
		return o
	}
	h := sha256.New()
	for _, w := range cs.Order {
		for _, level := range levels {
			for _, kind := range experiments.ModelKinds() {
				b, err := json.Marshal(cs.Get(w, kind, level.Name))
				if err != nil {
					o.op(err)
					return o
				}
				h.Write(b)
				h.Write([]byte{'\n'})
			}
		}
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
