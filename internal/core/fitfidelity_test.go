package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/robust"
)

// swapSurrogate replaces a registered family for the duration of the
// test.
func swapSurrogate(t *testing.T, s Surrogate) {
	t.Helper()
	surrogatesMu.Lock()
	old := surrogates[s.Name()]
	surrogates[s.Name()] = s
	surrogatesMu.Unlock()
	t.Cleanup(func() {
		surrogatesMu.Lock()
		surrogates[s.Name()] = old
		surrogatesMu.Unlock()
	})
}

// tracedExplain runs one ExplainCtx under a memory sink and counts the
// spans it emitted by name.
func tracedExplain(t *testing.T, eng *Engine, f *forest.Forest, cfg Config) (*Explanation, map[string]int) {
	t.Helper()
	ms := obs.NewMemorySink()
	obs.SetSink(ms)
	defer obs.SetSink(nil)
	ex, err := eng.ExplainCtx(context.Background(), f, cfg)
	if err != nil {
		t.Fatalf("%s explain: %v", cfg.Family, err)
	}
	seen := map[string]int{}
	for _, sp := range ms.Spans() {
		seen[sp.Name]++
	}
	return ex, seen
}

func mustMarshal(t *testing.T, ex *Explanation) []byte {
	t.Helper()
	b, err := ex.Marshal(false)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestWarmExplainSkipsFidelity: the fit artifact carries its fidelity,
// so a second identical explain of a cached family predicts nothing (no
// gef.fidelity span) and still serializes byte for byte like the first
// call and like a fresh engine's. gam has no fit key, so it re-measures
// on every call.
func TestWarmExplainSkipsFidelity(t *testing.T) {
	f := gprimeForest(t)
	for _, fam := range []string{FamilyRules, FamilySmoother, FamilyLIME, FamilyDistill, FamilyGAM} {
		t.Run(fam, func(t *testing.T) {
			cfg := engineCfg()
			cfg.Family = fam
			eng := NewEngine()
			first, coldSpans := tracedExplain(t, eng, f, cfg)
			second, warmSpans := tracedExplain(t, eng, f, cfg)
			fresh, _ := tracedExplain(t, NewEngine(), f, cfg)

			if coldSpans["gef.fidelity"] != 1 {
				t.Errorf("cold explain emitted %d gef.fidelity spans, want 1", coldSpans["gef.fidelity"])
			}
			wantWarm := 0
			if fam == FamilyGAM {
				wantWarm = 1
			}
			if warmSpans["gef.fidelity"] != wantWarm {
				t.Errorf("warm explain emitted %d gef.fidelity spans, want %d", warmSpans["gef.fidelity"], wantWarm)
			}
			b1, b2, b3 := mustMarshal(t, first), mustMarshal(t, second), mustMarshal(t, fresh)
			if !bytes.Equal(b1, b2) {
				t.Error("warm explanation serializes differently from the cold one")
			}
			if !bytes.Equal(b1, b3) {
				t.Error("explanation serializes differently from a fresh engine's")
			}
			if first.Fidelity != second.Fidelity {
				t.Errorf("fidelity %+v on the warm call, %+v cold", second.Fidelity, first.Fidelity)
			}
		})
	}
}

// failingSurrogate stands in for a family whose fit fails numerically.
type failingSurrogate struct{ name string }

func (s failingSurrogate) Name() string      { return s.name }
func (s failingSurrogate) Key(Config) string { return "failing" }

func (s failingSurrogate) Fit(context.Context, *FitInput) (SurrogateModel, []robust.Degradation, error) {
	return nil, nil, fmt.Errorf("injected %s failure: %w", s.name, robust.ErrNumerical)
}

// TestFallbackReportsRungFidelity: when the smoother fails, the ladder lands
// on gam and the reported fidelity is the gam fit's own.
func TestFallbackReportsRungFidelity(t *testing.T) {
	f := gprimeForest(t)
	cfg := engineCfg()
	cfg.Family = FamilyGAM
	direct, err := NewEngine().Explain(f, cfg)
	if err != nil {
		t.Fatal(err)
	}

	swapSurrogate(t, failingSurrogate{name: FamilySmoother})
	cfg.Family = FamilySmoother
	ex, err := NewEngine().Explain(f, cfg)
	if err != nil {
		t.Fatalf("fallback explain: %v", err)
	}
	if ex.Family != FamilyGAM {
		t.Fatalf("fallback landed on %q, want gam", ex.Family)
	}
	if ex.Fidelity != direct.Fidelity {
		t.Errorf("fallback fidelity %+v, gam's own %+v", ex.Fidelity, direct.Fidelity)
	}
	if !bytes.Equal(marshalModel(t, ex), marshalModel(t, direct)) {
		t.Error("fallback gam model differs from a direct gam fit")
	}
}

// cancelingSurrogate wraps a family so that its model cancels the
// explain's context as soon as the fidelity pass starts predicting.
type cancelingSurrogate struct {
	Surrogate
	cancel context.CancelFunc
}

func (s cancelingSurrogate) Fit(ctx context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error) {
	m, degr, err := s.Surrogate.Fit(ctx, in)
	if err != nil {
		return nil, degr, err
	}
	return cancelingModel{SurrogateModel: m, cancel: s.cancel}, degr, nil
}

type cancelingModel struct {
	SurrogateModel
	cancel context.CancelFunc
}

func (m cancelingModel) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	m.cancel()
	return m.SurrogateModel.PredictBatch(ctx, xs)
}

// TestFidelityCancelCachesNothing: a cancellation during the in-stage
// fidelity pass surfaces the typed context error and stores no fit
// artifact, so the next identical call misses and computes.
func TestFidelityCancelCachesNothing(t *testing.T) {
	f := gprimeForest(t)
	cfg := engineCfg()
	cfg.Family = FamilyRules
	real, err := surrogateFor(FamilyRules)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	swapSurrogate(t, cancelingSurrogate{Surrogate: real, cancel: cancel})
	if _, err := eng.ExplainCtx(ctx, f, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fidelity pass returned %v, want context.Canceled", err)
	}
	st := eng.CacheStats().Stages["fit"]
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("fit stage after the canceled call: %+v, want one miss", st)
	}

	swapSurrogate(t, real)
	ex, err := eng.Explain(f, cfg)
	if err != nil {
		t.Fatalf("explain after cancellation: %v", err)
	}
	st = eng.CacheStats().Stages["fit"]
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("fit stage after the retry: %+v, want a second miss and no hit", st)
	}
	fresh, err := NewEngine().Explain(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, ex), mustMarshal(t, fresh)) {
		t.Error("explanation after a canceled call differs from a fresh engine's")
	}
}
