package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/forest"
)

// probeRows is the size of the fixed probe set every explanation is
// evaluated on when its predictions are compared with the reference.
const probeRows = 64

// probeSet is the fixed probe set: g′ inputs from a seed no workload
// uses, so it is the same for every run and every --seed.
func probeSet() [][]float64 { return dataset.GPrime(probeRows, 0, 424242).X }

// reference is what a correct answer for one explain config looks like:
// the digest of the serialized explanation a direct engine call
// produces, that blob's predictions on the probe set after a reload
// through core.Unmarshal, and its held-out R².
type reference struct {
	hash  [32]byte
	preds []float64
	r2    float64
	// fidelityLine is the line the gef CLI prints for this explanation.
	fidelityLine string
}

// makeReference explains f under cfg with a direct engine call. corrupt
// flips one bit of the reference predictions; the self-tests use it to
// prove a wrong reference fails the check.
func makeReference(ctx context.Context, eng *core.Engine, f *forest.Forest, cfg core.Config, probe [][]float64, corrupt bool) (*reference, error) {
	ex, err := eng.ExplainCtx(ctx, f, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference explain: %w", err)
	}
	blob, err := ex.Marshal(false)
	if err != nil {
		return nil, fmt.Errorf("reference marshal: %w", err)
	}
	preds, err := reloadPredict(ctx, blob, probe)
	if err != nil {
		return nil, fmt.Errorf("reference reload: %w", err)
	}
	if corrupt {
		preds[0] = math.Float64frombits(math.Float64bits(preds[0]) ^ 1)
	}
	return &reference{
		hash:         sha256.Sum256(blob),
		preds:        preds,
		r2:           ex.Fidelity.R2,
		fidelityLine: fidelityLine(ex.Fidelity),
	}, nil
}

// reloadPredict reloads a serialized explanation with core.Unmarshal and
// evaluates it on the probe set. Rule-family blobs reload as summaries
// and predict NaN; their content is still covered by the blob digest.
func reloadPredict(ctx context.Context, blob []byte, probe [][]float64) ([]float64, error) {
	ex, err := core.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	return ex.Surrogate.PredictBatch(ctx, probe)
}

// verifyBlob checks one served explanation against its reference: same
// bytes, and the reload predicts the probe set bitwise identically.
func verifyBlob(ctx context.Context, blob []byte, ref *reference, probe [][]float64) error {
	if sha256.Sum256(blob) != ref.hash {
		return fmt.Errorf("explanation bytes differ from the reference")
	}
	preds, err := reloadPredict(ctx, blob, probe)
	if err != nil {
		return fmt.Errorf("reloading the explanation: %w", err)
	}
	if !equalBits(preds, ref.preds) {
		return fmt.Errorf("probe predictions differ from the reference")
	}
	return nil
}

// fidelityLine formats fidelity exactly as cmd/gef prints it.
func fidelityLine(fd core.Fidelity) string {
	return fmt.Sprintf("fidelity on held-out D*: RMSE %.4f, R² %.4f", fd.RMSE, fd.R2)
}

// shapTolerance bounds |Σφ + base − f(x)| for TreeSHAP local accuracy.
const shapTolerance = 1e-9

// checkShap asserts local accuracy against the forest's raw score.
func checkShap(f *forest.Forest, x, phi []float64, base float64) error {
	if len(phi) != len(x) {
		return fmt.Errorf("shap: %d attributions for %d features", len(phi), len(x))
	}
	sum := base
	for _, p := range phi {
		sum += p
	}
	if want := f.RawPredict(x); !(math.Abs(sum-want) <= shapTolerance) {
		return fmt.Errorf("shap: Σφ + base = %v, raw f(x) = %v", sum, want)
	}
	return nil
}
