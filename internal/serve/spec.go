// Package serve is the campaign-as-a-service layer: a stdlib net/http
// API that accepts experiment-matrix specs (JSON mirroring the
// teva-experiments flags), schedules them onto the shared experiment
// pipeline (experiments.Env over the bounded worker pool), dedupes
// identical submissions through the same provenance keying the artifact
// store uses, streams per-cell progress and obs snapshots over
// SSE/NDJSON, and serves final results as the byte-deterministic report
// the CLI prints.
//
// The determinism contract is the CLI's: for a given spec, the bytes of
// GET /v1/jobs/{id}/result are identical to `teva-experiments` stdout
// with the wall-clock lines removed (the same `grep -vE 'built
// in|completed in|total wall time'` filter CI applies), cold or warm
// cache, any worker count, any number of concurrent clients.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/workloads"
)

// Spec is the wire form of one campaign-matrix request. Fields mirror
// the teva-experiments flags of the same name; zero values mean "the
// CLI default". Workers deliberately has no effect on results (the
// repo-wide worker-count-invariance contract), so it is accepted but
// excluded from the dedupe key: two clients asking for the same matrix
// at different parallelism share one computation.
type Spec struct {
	// Experiments selects experiments by name (experiments.Names, or
	// "all"). Empty means all.
	Experiments []string `json:"experiments,omitempty"`
	// Quick/Full apply the -quick/-full presets (quick wins, like the
	// CLI).
	Quick bool `json:"quick,omitempty"`
	Full  bool `json:"full,omitempty"`
	// Scale overrides the workload scale: tiny, small, full.
	Scale string `json:"scale,omitempty"`
	// Runs overrides injections per campaign cell.
	Runs int `json:"runs,omitempty"`
	// Seed is the master seed (0: the 0xF00D default).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the job's parallelism (0: all cores). Not part of
	// the dedupe key — results are worker-count invariant.
	Workers int `json:"workers,omitempty"`
	// Timing selects the DTA engine: wide, exact ("": wide).
	Timing string `json:"timing,omitempty"`
	// Corners is the -corners sweep spec ("": the default set).
	Corners string `json:"corners,omitempty"`
	// STAScreen/ScreenGuardband/ScreenValidate mirror -sta-screen and
	// friends.
	STAScreen       bool    `json:"sta_screen,omitempty"`
	ScreenGuardband float64 `json:"screen_guardband,omitempty"`
	ScreenValidate  bool    `json:"screen_validate,omitempty"`
	// TimeoutFactor is the campaign timeout budget as a multiple of the
	// golden cycle count (0: the 2.0 default).
	TimeoutFactor float64 `json:"timeout_factor,omitempty"`
	// MaxDuration is the job's wall-clock budget as a Go duration
	// string ("": unlimited).
	MaxDuration string `json:"max_duration,omitempty"`
}

// maxSpecBytes bounds a submitted spec body; real specs are a few
// hundred bytes.
const maxSpecBytes = 1 << 16

// DecodeSpec reads one JSON spec. Unknown fields, malformed JSON,
// trailing garbage, and out-of-range values are all errors — a request
// the decoder cannot fully account for must 400, never start a job.
func DecodeSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("serve: bad spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("serve: bad spec: trailing data after JSON object")
	}
	sp.normalize()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// normalize rewrites the spec into its canonical form so that
// equivalent requests produce equal dedupe keys: experiment names are
// trimmed, deduplicated and sorted ("all" collapses the list), the seed
// default is made explicit (core.New maps 0 to 0xF00D), and the engine
// default is spelled out.
func (sp *Spec) normalize() {
	seen := map[string]bool{}
	var names []string
	for _, n := range sp.Experiments {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 || seen["all"] {
		names = []string{"all"}
	}
	sp.Experiments = names
	if sp.Seed == 0 {
		sp.Seed = 0xF00D
	}
	if sp.Timing == "" {
		sp.Timing = "wide"
	}
	if sp.Quick {
		sp.Full = false // quick wins, like the CLI's switch order
	}
}

// Validate rejects specs the pipeline would reject later (or worse,
// accept with garbage semantics), reusing the validation the execution
// layers own: dta.ParseEngine for the engine name,
// experiments.ParseCorners for the corner sweep,
// campaign.ValidateTimeoutFactor for the timeout budget.
func (sp Spec) Validate() error {
	for _, n := range sp.Experiments {
		if !experiments.KnownExperiment(n) {
			return fmt.Errorf("serve: unknown experiment %q", n)
		}
	}
	if _, err := dta.ParseEngine(sp.Timing); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := experiments.ParseCorners(sp.Corners); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if sp.Scale != "" {
		if _, err := workloads.ParseScale(sp.Scale); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if sp.Runs < 0 || sp.Runs > 1_000_000 {
		return fmt.Errorf("serve: runs %d out of range [0, 1000000]", sp.Runs)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("serve: negative workers %d", sp.Workers)
	}
	if sp.ScreenGuardband < 0 {
		return fmt.Errorf("serve: negative screen_guardband %v", sp.ScreenGuardband)
	}
	if err := campaign.ValidateTimeoutFactor(sp.TimeoutFactor); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := sp.maxDuration(); err != nil {
		return err
	}
	return nil
}

// maxDuration parses the wall-clock budget ("" means unlimited).
func (sp Spec) maxDuration() (time.Duration, error) {
	if sp.MaxDuration == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(sp.MaxDuration)
	if err != nil {
		return 0, fmt.Errorf("serve: bad max_duration: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("serve: negative max_duration %s", d)
	}
	return d, nil
}

// Key is the spec's canonical provenance string: every field that
// shapes result bytes, in a fixed order — the serving-layer analogue of
// the artifact store's cache keys. Workers and MaxDuration are
// excluded: worker count never changes results, and a wall-clock budget
// changes only whether a job finishes, not what a finished job returns.
func (sp Spec) Key() string {
	return fmt.Sprintf("exp=%s;quick=%v;full=%v;scale=%s;runs=%d;seed=%#x;timing=%s;corners=%s;screen=%v/%v/%v;tf=%v",
		strings.Join(sp.Experiments, "+"), sp.Quick, sp.Full, sp.Scale, sp.Runs,
		sp.Seed, sp.Timing, sp.Corners,
		sp.STAScreen, sp.ScreenGuardband, sp.ScreenValidate, sp.TimeoutFactor)
}

// JobID is the content-addressed job identifier: a short SHA-256 of the
// canonical key. Identical specs get identical IDs, which is what makes
// submission idempotent across clients and restarts.
func (sp Spec) JobID() string {
	sum := sha256.Sum256([]byte(sp.Key()))
	return "j" + hex.EncodeToString(sum[:8])
}

// Effective translates the spec into the pipeline's option/config pair,
// exactly as the CLI flag handling does (preset first, then explicit
// overrides). The caller attaches the shared artifact store and the
// job's metrics registry.
func (sp Spec) Effective() (experiments.Options, core.Config, error) {
	eng, err := dta.ParseEngine(sp.Timing)
	if err != nil {
		return experiments.Options{}, core.Config{}, err
	}
	opts := experiments.DefaultOptions()
	cfg := core.Config{
		Seed:          sp.Seed,
		Workers:       sp.Workers,
		Timing:        eng,
		TimeoutFactor: sp.TimeoutFactor,
		Screen: dta.ScreenConfig{
			Enabled:   sp.STAScreen,
			Guardband: sp.ScreenGuardband,
			Validate:  sp.ScreenValidate,
		},
	}
	experiments.ApplyPreset(sp.Quick, sp.Full, &opts, &cfg)
	if sp.Scale != "" {
		sc, err := workloads.ParseScale(sp.Scale)
		if err != nil {
			return experiments.Options{}, core.Config{}, err
		}
		opts.Scale = sc
	}
	if sp.Runs > 0 {
		opts.Runs = sp.Runs
	}
	return opts, cfg, nil
}
