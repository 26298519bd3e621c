package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"teva/internal/artifact"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/shard"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// This file is the bridge between the experiment pipeline and
// internal/shard's process supervision. Sharding is cache prewarming:
// worker processes compute characterization summaries and campaign cells
// into the shared artifact store, then the supervisor process runs the
// suite exactly as an unsharded run would — every prewarmed unit
// reloads, everything else (quarantined poison units, units lost to dead
// workers) is computed in-process. The report bytes are therefore
// identical to the single-process run by construction, and the
// degradation ladder (N workers -> fewer -> zero) needs no special
// casing anywhere in the experiment code.

// PlanOf captures env's resolved pipeline configuration as a shard.Plan
// — everything a worker process needs to rebuild a framework whose
// artifact provenance keys match the supervisor's bit for bit.
func PlanOf(e *Env) shard.Plan {
	cfg := e.F.Cfg
	p := shard.Plan{
		Seed:             cfg.Seed,
		Scale:            e.Opts.Scale.String(),
		Runs:             e.Opts.Runs,
		RandomOperands:   cfg.RandomOperands,
		WorkloadOperands: cfg.WorkloadOperands,
		DASample:         cfg.DASample,
		Workers:          cfg.Workers,
		TimeoutFactor:    cfg.TimeoutFactor,
		Timing:           cfg.Timing.String(),
		ScreenEnabled:    cfg.Screen.Enabled,
		ScreenGuardband:  cfg.Screen.Guardband,
		ScreenValidate:   cfg.Screen.Validate,
	}
	if cfg.Artifacts != nil {
		p.CacheDir = cfg.Artifacts.Dir()
	}
	return p
}

// NewEnvFromPlan rebuilds a worker-side environment from a supervisor's
// Plan: same seed, scales, sample sizes, engine, and screen settings,
// sharing the supervisor's cache directory. The worker's summaries and
// cells land under exactly the keys the supervisor's in-process run will
// load.
func NewEnvFromPlan(ctx context.Context, plan shard.Plan) (*Env, error) {
	eng, err := dta.ParseEngine(plan.Timing)
	if err != nil {
		return nil, fmt.Errorf("plan timing: %w", err)
	}
	sc, err := workloads.ParseScale(plan.Scale)
	if err != nil {
		return nil, fmt.Errorf("plan scale: %w", err)
	}
	cfg := core.Config{
		Seed:             plan.Seed,
		RandomOperands:   plan.RandomOperands,
		WorkloadOperands: plan.WorkloadOperands,
		DASample:         plan.DASample,
		Workers:          plan.Workers,
		TimeoutFactor:    plan.TimeoutFactor,
		Timing:           eng,
		Screen: dta.ScreenConfig{
			Enabled:   plan.ScreenEnabled,
			Guardband: plan.ScreenGuardband,
			Validate:  plan.ScreenValidate,
		},
	}
	if plan.CacheDir != "" {
		store, err := artifact.OpenIn(plan.CacheDir, nil)
		if err != nil {
			return nil, fmt.Errorf("plan cache dir: %w", err)
		}
		cfg.Artifacts = store
	}
	f, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	opts.Scale = sc
	if plan.Runs > 0 {
		opts.Runs = plan.Runs
	}
	return NewEnvContext(ctx, f, opts), nil
}

// ShardUnits plans the work-unit set for an experiment selection: the
// random-operand characterizations, workload characterizations, and
// campaign cells the selected experiments will consume. Units the
// selection does not need are simply not planned — the prewarm is an
// accelerator, so under-planning costs time, never correctness.
//
// Stages order the schedule: summaries (stage 0) complete before
// campaign cells (stage 1) lease, so every cell's model build on every
// worker is a cache read instead of a duplicated characterization.
func ShardUnits(e *Env, names []string) ([]shard.Unit, error) {
	if len(names) == 0 {
		names = []string{"all"}
	}
	selected := map[string]bool{}
	for _, name := range names {
		selected[name] = true
	}
	want := func(ns ...string) bool {
		if selected["all"] {
			return true
		}
		for _, n := range ns {
			if selected[n] {
				return true
			}
		}
		return false
	}
	needRandom := want("fig7", "fig9", "fig10", "avm")
	needWA := want("fig5", "fig8", "fig9", "fig10", "avm", "validate")
	needCells := want("fig9", "avm")

	var units []shard.Unit
	if needRandom {
		for _, level := range e.Levels() {
			for _, op := range fpu.Ops() {
				units = append(units, shard.Unit{
					Kind: shard.UnitRandom, Level: level.Name,
					Op: int(op), OpName: op.String(), Stage: 0,
				})
			}
		}
	}
	if needWA || needCells {
		ws, err := e.Workloads()
		if err != nil {
			return nil, err
		}
		if needWA {
			for _, level := range e.Levels() {
				for _, w := range ws {
					units = append(units, shard.Unit{
						Kind: shard.UnitWA, Level: level.Name,
						Workload: w.Name, Stage: 0,
					})
				}
			}
		}
		if needCells {
			for _, w := range ws {
				for _, level := range e.Levels() {
					for _, kind := range ModelKinds() {
						units = append(units, shard.Unit{
							Kind: shard.UnitCell, Level: level.Name,
							Workload: w.Name, Model: string(kind), Stage: 1,
						})
					}
				}
			}
		}
	}
	return units, nil
}

// unitSum is the canonical checksum of a unit's result value — what a
// worker reports to the tracker, and what late-completion reconciliation
// compares. JSON marshaling is deterministic for these result types
// (struct fields in order, map keys sorted), so byte-identical results
// produce identical sums across processes.
func unitSum(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// levelByName resolves a Plan-carried level name against the evaluated
// set.
func (e *Env) levelByName(name string) (vscale.VRLevel, error) {
	for _, level := range e.Levels() {
		if level.Name == name {
			return level, nil
		}
	}
	if name == vscale.Nominal.Name {
		return vscale.Nominal, nil
	}
	return vscale.VRLevel{}, fmt.Errorf("unknown voltage level %q", name)
}

// ExecuteUnit computes one shard work unit against env, returning the
// result checksum. The computation is the same code path the in-process
// suite runs — ExecuteUnit exists only to give it per-unit granularity
// and a canonical checksum.
func ExecuteUnit(ctx context.Context, e *Env, u shard.Unit) (string, error) {
	level, err := e.levelByName(u.Level)
	if err != nil {
		return "", err
	}
	switch u.Kind {
	case shard.UnitRandom:
		if u.Op < 0 || u.Op >= int(fpu.NumOps) {
			return "", fmt.Errorf("unit %s: op ordinal %d out of range", u.ID(), u.Op)
		}
		s, err := e.F.RandomSummaryOp(ctx, level, fpu.Op(u.Op))
		if err != nil {
			return "", err
		}
		return unitSum(s)
	case shard.UnitWA:
		w, err := e.workloadByName(u.Workload)
		if err != nil {
			return "", err
		}
		sums, err := e.WASummaries(level, w)
		if err != nil {
			return "", err
		}
		// Marshal in fpu.Ops order: map iteration order must not leak
		// into the checksum.
		ordered := make([]*dta.Summary, 0, len(sums))
		for _, op := range fpu.Ops() {
			if s, ok := sums[op]; ok {
				ordered = append(ordered, s)
			}
		}
		return unitSum(ordered)
	case shard.UnitCell:
		w, err := e.workloadByName(u.Workload)
		if err != nil {
			return "", err
		}
		r, err := e.CellCtx(ctx, w, errmodel.Kind(u.Model), level)
		if err != nil {
			return "", err
		}
		return unitSum(r)
	default:
		return "", fmt.Errorf("unknown unit kind %q", u.Kind)
	}
}

func (e *Env) workloadByName(name string) (*workloads.Workload, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// WorkerOptions configures one worker process (cmd/teva-worker, or the
// test re-exec harness).
type WorkerOptions struct {
	// Supervisor is the coordinator's dial address.
	Supervisor string
	// ID is the supervisor-assigned worker identity.
	ID string
	// Diag receives the worker's progress notes (nil: discarded). The
	// supervisor pipes it, line-prefixed, onto its own Diag stream.
	Diag io.Writer
	// KillUnitSub, when non-empty, SIGKILLs this process the moment it
	// leases a unit whose ID contains the substring — the poison-cell
	// chaos hook (restarted workers inherit it, so the unit strikes out
	// and is quarantined).
	KillUnitSub string
	// KillAfterUnits, when > 0, SIGKILLs this process after completing
	// that many units — the transient-crash chaos hook.
	KillAfterUnits int
}

// WorkerMain is the worker process body: fetch the plan, rebuild the
// environment, then lease/execute/complete until the supervisor reports
// the unit set drained. It returns nil on a clean drain; the supervisor
// treats any exit before that as a fault and reassigns the worker's
// lease.
func WorkerMain(ctx context.Context, o WorkerOptions) error {
	diag := o.Diag
	if diag == nil {
		diag = io.Discard
	}
	c := shard.NewClient(o.Supervisor)
	plan, err := c.FetchPlan(ctx)
	if err != nil {
		return fmt.Errorf("worker %s: fetch plan: %w", o.ID, err)
	}
	env, err := NewEnvFromPlan(ctx, plan)
	if err != nil {
		return fmt.Errorf("worker %s: build env: %w", o.ID, err)
	}
	fmt.Fprintf(diag, "worker %s: substrate ready (seed=%#x scale=%s workers=%d)\n",
		o.ID, plan.Seed, plan.Scale, plan.Workers)
	completed := 0
	return shard.ClientLoop(ctx, c, o.ID, func(ctx context.Context, u shard.Unit) (string, error) {
		if o.KillUnitSub != "" && strings.Contains(u.ID(), o.KillUnitSub) {
			fmt.Fprintf(diag, "worker %s: chaos self-SIGKILL on unit %s\n", o.ID, u.ID())
			killSelf()
		}
		sum, err := ExecuteUnit(ctx, env, u)
		if err != nil {
			fmt.Fprintf(diag, "worker %s: unit %s failed: %v\n", o.ID, u.ID(), err)
			return "", err
		}
		completed++
		fmt.Fprintf(diag, "worker %s: unit %s done (%d total)\n", o.ID, u.ID(), completed)
		if o.KillAfterUnits > 0 && completed >= o.KillAfterUnits {
			fmt.Fprintf(diag, "worker %s: chaos self-SIGKILL after %d units\n", o.ID, completed)
			killSelf()
		}
		return sum, nil
	})
}

// killSelf delivers SIGKILL to the current process: no deferred cleanup,
// no exit handlers — the closest portable stand-in for an OOM kill.
func killSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {} // unreachable on delivery; block rather than return
}

// shardPrewarm runs the sharded cache prewarm for a RunSuite call. It
// never fails the run: every fault — no cache dir, no worker binary,
// workers all dead, poison units — degrades to the in-process run
// computing whatever is missing, and is reported on diag only (stdout
// must stay byte-identical to the unsharded run).
func shardPrewarm(e *Env, cfg SuiteConfig, diag io.Writer) {
	if e.F.Cfg.Artifacts == nil {
		fmt.Fprintf(diag, "shard: -shards %d ignored: sharding needs a shared -cache-dir; running in-process\n", cfg.Shards)
		return
	}
	if cfg.ShardWorkerBin == "" {
		fmt.Fprintf(diag, "shard: -shards %d ignored: no worker binary configured; running in-process\n", cfg.Shards)
		return
	}
	if e.Draining() {
		return
	}
	units, err := ShardUnits(e, cfg.Experiments)
	if err != nil {
		fmt.Fprintf(diag, "shard: unit planning failed (%v); running in-process\n", err)
		return
	}
	if len(units) == 0 {
		fmt.Fprintf(diag, "shard: selection has no shardable units; running in-process\n")
		return
	}
	plan := PlanOf(e)
	// Split the core budget across workers so N shards don't oversubscribe
	// the machine N-fold. Worker counts never change results, only speed.
	plan.Workers = e.workers() / cfg.Shards
	if plan.Workers < 1 {
		plan.Workers = 1
	}
	sup, err := shard.NewSupervisor(units, plan, shard.SupervisorConfig{
		Shards:         cfg.Shards,
		WorkerBin:      cfg.ShardWorkerBin,
		WorkerEnv:      cfg.ShardWorkerEnv,
		KillAfterUnits: cfg.ShardKillAfterUnits,
		Metrics:        e.F.Cfg.Metrics,
		Diag:           diag,
	})
	if err != nil {
		fmt.Fprintf(diag, "shard: supervisor setup failed (%v); running in-process\n", err)
		return
	}
	fmt.Fprintf(diag, "shard: prewarming %d units across %d workers (%s)\n",
		len(units), cfg.Shards, cfg.ShardWorkerBin)
	rep, err := sup.Run(e.ctx)
	if err != nil {
		fmt.Fprintf(diag, "shard: prewarm stopped (%v); the in-process run computes the remainder\n", err)
	}
	fmt.Fprintf(diag, "%s\n", rep.String())
	if !rep.Completed {
		fmt.Fprintf(diag, "shard: prewarm incomplete; the in-process run computes the remainder\n")
	}
}
