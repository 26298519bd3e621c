package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"teva/internal/chaos"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/guard"
	"teva/internal/vscale"
)

// TestCachedSummaryPanicAndFailureNeverSaved pins cachedSummary's error
// contract: a panicking compute surfaces as a *guard.PanicError labeled
// with the stream's tag, a failing compute returns its error, and neither
// writes to the artifact store. A good compute afterwards still does.
func TestCachedSummaryPanicAndFailureNeverSaved(t *testing.T) {
	e := chaosEnv(t, chaos.Options{})
	store := e.F.Cfg.Artifacts

	_, err := e.cachedSummary("probe/panic", fpu.DMul, 1, 10, func() (*dta.Summary, error) {
		panic("boom")
	})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking compute: want *guard.PanicError, got %v", err)
	}
	if !strings.Contains(pe.Label, "probe/panic") {
		t.Fatalf("panic label %q does not name the tag", pe.Label)
	}

	errFail := errors.New("compute failed")
	_, err = e.cachedSummary("probe/fail", fpu.DMul, 1, 10, func() (*dta.Summary, error) {
		return nil, errFail
	})
	if !errors.Is(err, errFail) {
		t.Fatalf("failing compute: want %v, got %v", errFail, err)
	}
	if w := store.Stats().Writes; w != 0 {
		t.Fatalf("failed computes wrote %d store entries, want 0", w)
	}

	sum, err := e.cachedSummary("probe/ok", fpu.DMul, 1, 0, func() (*dta.Summary, error) {
		return dta.Summarize(fpu.DMul, nil), nil
	})
	if err != nil || sum == nil {
		t.Fatalf("good compute: %v, %v", sum, err)
	}
	if w := store.Stats().Writes; w != 1 {
		t.Fatalf("good compute wrote %d store entries, want 1", w)
	}
}

// TestExperimentsCanceledContext holds every ad-hoc DTA experiment to the
// Env's context: with it canceled up front, each returns context.Canceled
// instead of running its streams to completion, and nothing reaches the
// artifact store.
func TestExperimentsCanceledContext(t *testing.T) {
	base := chaosEnv(t, chaos.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := base.Opts
	opts.Fig6Full, opts.Fig6Ks, opts.Fig6Reps = 200, []int{50}, 1
	e := NewEnvContext(ctx, base.F, opts)

	runs := []struct {
		name string
		run  func() error
	}{
		{"Fig6", func() error { _, err := Fig6(e); return err }},
		{"Fig7", func() error { _, err := Fig7(e); return err }},
		{"Sources", func() error { _, err := Sources(e); return err }},
		{"HistoryAblation", func() error { _, err := HistoryAblation(e, vscale.VR20); return err }},
		{"ProcessVariation", func() error { _, err := ProcessVariation(e, 2, 0.05); return err }},
		{"Validate", func() error { _, _, err := Validate(e, vscale.VR20); return err }},
	}
	for _, r := range runs {
		if err := r.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", r.name, err)
		}
	}
	if w := e.F.Cfg.Artifacts.Stats().Writes; w != 0 {
		t.Fatalf("canceled experiments wrote %d store entries, want 0", w)
	}
}
