package forest

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// gridRows materializes grid rows the way D* sampling does: fill values
// everywhere, then each varying feature's coded point.
func gridRows(g *Grid, codes []uint16, n int) [][]float64 {
	ns := len(g.Features)
	xs := make([][]float64, n)
	for r := range xs {
		x := append([]float64(nil), g.Fill...)
		for k, j := range g.Features {
			x[j] = g.Points[k][codes[r*ns+k]]
		}
		xs[r] = x
	}
	return xs
}

// randCodes draws n rows of uniform point indices.
func randCodes(r *rand.Rand, g *Grid, n int) []uint16 {
	codes := make([]uint16, n*len(g.Features))
	for i := range codes {
		codes[i] = uint16(r.Intn(len(g.Points[i%len(g.Features)])))
	}
	return codes
}

// requireGridParity asserts PredictGridCtx equals PredictBatchInto on the
// materialized rows bit for bit.
func requireGridParity(t *testing.T, f *Forest, g *Grid, codes []uint16, n int) {
	t.Helper()
	fl := Compile(f)
	want := make([]float64, n)
	fl.PredictBatchInto(gridRows(g, codes, n), want)
	got := make([]float64, n)
	if err := fl.PredictGridCtx(context.Background(), g, codes, got); err != nil {
		t.Fatalf("PredictGridCtx: %v", err)
	}
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("row %d: grid label %v, flat label %v (codes %v)",
				r, got[r], want[r], codes[r*len(g.Features):(r+1)*len(g.Features)])
		}
	}
}

// nearThresholds draws domain points at, just below and just above the
// eighth-rounded thresholds randTree uses, plus duplicates and an
// unsorted order, so every comparison edge is exercised.
func nearThresholds(r *rand.Rand, k int) []float64 {
	pts := make([]float64, k)
	for i := range pts {
		v := math.Round(r.NormFloat64()*8) / 8
		switch r.Intn(4) {
		case 0:
			v = math.Nextafter(v, math.Inf(-1))
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		case 2:
			if i > 0 {
				v = pts[r.Intn(i)] // duplicate
			}
		}
		pts[i] = v
	}
	return pts
}

func TestPredictGridMatchesFlat(t *testing.T) {
	cases := []struct {
		name        string
		trees       int
		feats       int
		maxInternal int
		obj         Objective
		// extra widens the forest by features no tree splits on; the
		// first of them is selected.
		extra bool
		// nanFill sets one fixed feature's fill value to NaN.
		nanFill bool
		// minLeaves is the leaf count the largest tree must exceed.
		minLeaves int
	}{
		{name: "small regression", trees: 5, feats: 4, maxInternal: 15, obj: Regression},
		{name: "more than 64 leaves", trees: 3, feats: 3, maxInternal: 150, obj: Regression, minLeaves: 64},
		{name: "more than 128 leaves", trees: 2, feats: 2, maxInternal: 300, obj: Regression, minLeaves: 128},
		{name: "leaf-only trees", trees: 4, feats: 3, maxInternal: 0, obj: Regression},
		{name: "logistic", trees: 20, feats: 5, maxInternal: 20, obj: BinaryLogistic},
		{name: "unsplit selected feature", trees: 6, feats: 3, maxInternal: 20, obj: Regression, extra: true},
		{name: "NaN fill", trees: 6, feats: 4, maxInternal: 20, obj: BinaryLogistic, nanFill: true},
		{name: "many trees span blocks", trees: 300, feats: 4, maxInternal: 10, obj: Regression},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + i)))
			// Trees grow at random; redraw until one is as large as the
			// case needs.
			f := randForest(r, c.trees, c.feats, c.maxInternal, c.obj)
			for tries := 0; maxLeaves(f) <= c.minLeaves; tries++ {
				if tries == 100 {
					t.Fatalf("no forest with a tree of more than %d leaves", c.minLeaves)
				}
				f = randForest(r, c.trees, c.feats, c.maxInternal, c.obj)
			}
			if c.extra {
				f.NumFeatures += 2
			}
			g := &Grid{Fill: make([]float64, f.NumFeatures)}
			for j := range g.Fill {
				g.Fill[j] = math.Round(r.NormFloat64()*8) / 8
			}
			if c.nanFill {
				g.Fill[f.NumFeatures-1] = math.NaN()
			}
			if c.extra {
				g.Features = append(g.Features, c.feats)
				g.Points = append(g.Points, nearThresholds(r, 5))
			}
			// Select every other split feature; the rest stay at Fill.
			for j := 0; j < c.feats; j += 2 {
				g.Features = append(g.Features, j)
				g.Points = append(g.Points, nearThresholds(r, 2+r.Intn(40)))
			}
			const n = 3*rowBlock + 5
			requireGridParity(t, f, g, randCodes(r, g, n), n)
		})
	}
}

func maxLeaves(f *Forest) int {
	most := 0
	for _, t := range f.Trees {
		most = max(most, t.NumLeaves())
	}
	return most
}

// TestPredictGridNonMonotoneDomain pins the EquiSize case seen on a real
// forest: floating-point means of adjacent threshold runs can come out
// one ulp out of order, so a domain is not sorted and the labeler must
// address points by index, never by search.
func TestPredictGridNonMonotoneDomain(t *testing.T) {
	hi, lo := 0.9107559416351293, 0.9107559416351292
	f := &Forest{NumFeatures: 1, Objective: Regression, Trees: []Tree{{Nodes: []Node{
		{Feature: 0, Threshold: lo, Left: 1, Right: 2, Cover: 2},
		{Left: -1, Right: -1, Value: -1, Cover: 1},
		{Left: -1, Right: -1, Value: 1, Cover: 1},
	}}}}
	g := &Grid{Features: []int{0}, Points: [][]float64{{0.5, hi, lo, 1.5}}, Fill: []float64{0}}
	codes := []uint16{0, 1, 2, 3, 2, 1}
	requireGridParity(t, f, g, codes, len(codes))
	out := make([]float64, len(codes))
	if err := Compile(f).PredictGridCtx(context.Background(), g, codes, out); err != nil {
		t.Fatal(err)
	}
	if out[1] != 1 || out[2] != -1 {
		t.Fatalf("points %v and %v around threshold %v labeled %v and %v, want 1 and -1", hi, lo, lo, out[1], out[2])
	}
}

func TestPredictGridDeepChain(t *testing.T) {
	const depth = 2000
	nodes := make([]Node, 0, 2*depth+1)
	for d := 0; d < depth; d++ {
		i := len(nodes)
		nodes = append(nodes,
			Node{Feature: 0, Threshold: float64(depth - d), Left: i + 2, Right: i + 1, Gain: 1, Cover: float64(depth-d) + 1},
			Node{Left: -1, Right: -1, Value: float64(d), Cover: 1})
	}
	nodes = append(nodes, Node{Left: -1, Right: -1, Value: -1, Cover: 1})
	f := &Forest{Trees: []Tree{{Nodes: nodes}}, NumFeatures: 1, Objective: Regression}
	g := &Grid{Features: []int{0}, Points: [][]float64{{0, depth / 2.0, depth + 1, 1.5, 1}}, Fill: []float64{0}}
	codes := []uint16{0, 1, 2, 3, 4}
	requireGridParity(t, f, g, codes, len(codes))
}

func TestPredictGridCanceled(t *testing.T) {
	f := twoTreeForest()
	g := &Grid{Features: []int{0}, Points: [][]float64{{0, 1}}, Fill: make([]float64, f.NumFeatures)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Compile(f).PredictGridCtx(ctx, g, []uint16{0, 1}, make([]float64, 2)); err == nil {
		t.Fatal("PredictGridCtx ignored a canceled context")
	}
}

func TestGridPays(t *testing.T) {
	small := &Grid{Points: [][]float64{make([]float64, 256), make([]float64, 256)}}
	if !small.Pays() {
		t.Error("a 512-point grid should take the grid labeler")
	}
	huge := &Grid{Points: [][]float64{make([]float64, 20000), make([]float64, 20000)}}
	if huge.Pays() {
		t.Error("a 40000-point grid should keep the flat walk")
	}
}

func TestClearBits(t *testing.T) {
	row := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	clearBits(row, 3, 130)
	if row[0] != 0b111 || row[1] != 0 || row[2] != ^uint64(0b11) {
		t.Fatalf("clearBits(3, 130) = %x", row)
	}
	clearBits(row, 0, 0)
	if row[0] != 0b111 {
		t.Fatal("empty range cleared bits")
	}
}

// FuzzGridParity drives randomized forests, domains and fill values
// through the grid labeler and asserts bitwise equality with the flat
// batch kernel on the materialized rows.
func FuzzGridParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(20), uint8(2), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), uint8(1), true)
	f.Add(int64(3), uint8(7), uint8(5), uint8(120), uint8(4), true)

	f.Fuzz(func(t *testing.T, seed int64, numTrees, numFeat, maxInternal, numSel uint8, logistic bool) {
		r := rand.New(rand.NewSource(seed))
		nf := 1 + int(numFeat)%6
		obj := Regression
		if logistic {
			obj = BinaryLogistic
		}
		fr := randForest(r, 1+int(numTrees)%12, nf, int(maxInternal)%160, obj)
		fr.NumFeatures++ // one feature no tree splits on
		g := &Grid{Fill: make([]float64, fr.NumFeatures)}
		for j := range g.Fill {
			g.Fill[j] = nearThresholds(r, 1)[0]
		}
		for _, j := range r.Perm(fr.NumFeatures)[:1+int(numSel)%fr.NumFeatures] {
			g.Features = append(g.Features, j)
			g.Points = append(g.Points, nearThresholds(r, 1+r.Intn(30)))
		}
		n := 1 + r.Intn(2*rowBlock)
		requireGridParity(t, fr, g, randCodes(r, g, n), n)
	})
}
