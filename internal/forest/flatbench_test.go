package forest

import (
	"context"
	"math/rand"
	"testing"
)

// benchFixture builds a 100-tree, 16-leaf-scale forest and a row batch
// shaped like the D* labeling workload.
func benchFixture(b *testing.B) (*Forest, [][]float64) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	f := randForest(r, 100, 8, 15, Regression)
	xs := make([][]float64, 4096)
	for i := range xs {
		xs[i] = randRow(r, 8, 0)
	}
	return f, xs
}

func BenchmarkPointerPredict(b *testing.B) {
	f, xs := benchFixture(b)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, x := range xs {
			out[i] = f.Predict(x)
		}
	}
}

func BenchmarkFlatPredictBatch(b *testing.B) {
	f, xs := benchFixture(b)
	fl := Compile(f)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		fl.PredictBatchInto(xs, out)
	}
}

// gridBenchFixture is the CLI's D* labeling shape: a 200-tree forest
// with 5 varying features of 256 domain points each.
func gridBenchFixture(b *testing.B) (*Flat, *Grid, []uint16, [][]float64) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	f := randForest(r, 200, 10, 31, Regression)
	g := &Grid{Fill: make([]float64, f.NumFeatures)}
	for j := 0; j < 5; j++ {
		g.Features = append(g.Features, 2*j)
		g.Points = append(g.Points, nearThresholds(r, 256))
	}
	const n = 8192
	codes := randCodes(r, g, n)
	return Compile(f), g, codes, gridRows(g, codes, n)
}

func BenchmarkGridLabel(b *testing.B) {
	fl, g, codes, xs := gridBenchFixture(b)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := fl.PredictGridCtx(context.Background(), g, codes, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N*len(xs)), "ns/row")
}

func BenchmarkGridFlatLabel(b *testing.B) {
	fl, _, _, xs := gridBenchFixture(b)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		fl.PredictBatchInto(xs, out)
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N*len(xs)), "ns/row")
}
