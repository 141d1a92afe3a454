package smoother

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
	"gef/internal/par"
)

// rowMajorPredict is the row-major kernel the column layout replaced,
// kept verbatim as the reference.
func rowMajorPredict(p Payload, x []float64) float64 {
	logw := make([]float64, len(p.Dict))
	maxw := math.Inf(-1)
	for i, d := range p.Dict {
		s := 0.0
		for fi, j := range p.Features {
			h := p.Bandwidths[fi]
			if h == 0 {
				continue
			}
			z := (x[j] - d[fi]) / h
			s += z * z
		}
		logw[i] = -0.5 * s
		if logw[i] > maxw {
			maxw = logw[i]
		}
	}
	num, den := 0.0, 0.0
	for i, lw := range logw {
		w := math.Exp(lw - maxw)
		num += w * p.Y[i]
		den += w
	}
	return num / den
}

// checkKernelParity asserts Predict and PredictBatch (at 1 and 2
// workers) equal the row-major reference bitwise on every row.
func checkKernelParity(t *testing.T, m *Model, xs [][]float64) {
	t.Helper()
	defer par.SetWorkers(0)
	for _, w := range []int{1, 2} {
		par.SetWorkers(w)
		batch, err := m.PredictBatch(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := math.Float64bits(rowMajorPredict(m.Payload(), x))
			if got := math.Float64bits(batch[i]); got != want {
				t.Fatalf("workers=%d row %d: PredictBatch %v, row-major %v", w, i, batch[i], math.Float64frombits(want))
			}
			if got := math.Float64bits(m.Predict(x)); got != want {
				t.Fatalf("row %d: Predict %v, row-major %v", i, m.Predict(x), math.Float64frombits(want))
			}
		}
	}
}

func TestColumnKernelMatchesRowMajor(t *testing.T) {
	f, train, test := fixture(t)
	m, err := Fit(context.Background(), f, allFeatures(), train, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fitted", func(t *testing.T) { checkKernelParity(t, m, test.X) })

	t.Run("zero bandwidths", func(t *testing.T) {
		p := m.Payload()
		p.Bandwidths = append([]float64(nil), p.Bandwidths...)
		p.Bandwidths[0], p.Bandwidths[3] = 0, 0
		zm, err := FromPayload(p)
		if err != nil {
			t.Fatal(err)
		}
		checkKernelParity(t, zm, test.X)
	})

	t.Run("reloaded", func(t *testing.T) {
		blob, err := json.Marshal(m.Payload())
		if err != nil {
			t.Fatal(err)
		}
		var p Payload
		if err := json.Unmarshal(blob, &p); err != nil {
			t.Fatal(err)
		}
		back, err := FromPayload(p)
		if err != nil {
			t.Fatal(err)
		}
		checkKernelParity(t, back, test.X)
	})

	t.Run("logistic forest", func(t *testing.T) {
		ds := dataset.GPrime(1000, 0.05, 23)
		for i, y := range ds.Y {
			ds.Y[i] = 0
			if y > 2.5 {
				ds.Y[i] = 1
			}
		}
		lf, err := gbdt.Train(ds, gbdt.Params{NumTrees: 25, NumLeaves: 12, Objective: forest.BinaryLogistic, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		train := &dataset.Dataset{X: ds.X[:800], Y: lf.PredictBatch(ds.X[:800])}
		lm, err := Fit(context.Background(), lf, []int{0, 2, 4}, train, Config{DictSize: 300})
		if err != nil {
			t.Fatal(err)
		}
		checkKernelParity(t, lm, ds.X[800:])
	})
}
