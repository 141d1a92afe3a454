package rules

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
)

// sortReduce is the per-row sort reduction the leaf ranks replaced,
// kept verbatim as the reference: it returns the reduced prediction,
// the kept-tree count and the tree order.
func sortReduce(fl *forest.Flat, absTol float64, leaves []int32) (pred float64, kept int, order []int) {
	type treeKey struct {
		abs  float64
		tree int
	}
	nt := fl.NumTrees
	diffs := make([]float64, nt)
	keys := make([]treeKey, nt)
	suffixes := make([]float64, nt+1)
	response := func(raw float64) float64 {
		if fl.Objective == forest.BinaryLogistic {
			return forest.Sigmoid(raw)
		}
		return raw
	}
	fullRaw := fl.BaseScore
	for t, leaf := range leaves {
		v := fl.Value(leaf)
		fullRaw += v
		d := v - fl.TreeMean(t)
		diffs[t] = d
		keys[t] = treeKey{abs: math.Abs(d), tree: t}
	}
	slices.SortFunc(keys, func(a, b treeKey) int {
		switch {
		case a.abs > b.abs:
			return -1
		case a.abs < b.abs:
			return 1
		}
		return a.tree - b.tree
	})
	for _, k := range keys {
		order = append(order, k.tree)
	}
	full := response(fullRaw)
	suffix := 0.0
	for k := nt - 1; k >= 0; k-- {
		suffix += diffs[keys[k].tree]
		suffixes[k] = suffix
	}
	suffixes[nt] = 0
	for k := 0; k <= nt; k++ {
		p := response(fullRaw - suffixes[k])
		if math.Abs(p-full) <= absTol {
			return p, k, order
		}
	}
	return full, nt, order
}

// checkRankParity asserts that m's ranked reduction matches sortReduce
// bitwise on every row: prediction, kept count and tree order, through
// the single-row path, PredictBatch and Explain.
func checkRankParity(t *testing.T, m *Model, xs [][]float64) {
	t.Helper()
	fl := m.fl
	batch, err := m.PredictBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	red := m.newReducer()
	leaves := make([]int32, fl.NumTrees)
	for i, x := range xs {
		for tr := range leaves {
			leaves[tr] = fl.Leaf(tr, x)
		}
		wantPred, wantKept, wantOrder := sortReduce(fl, m.summary.AbsTolerance, leaves)
		pred, kept := red.reduceLeaves(leaves)
		if math.Float64bits(pred) != math.Float64bits(wantPred) || kept != wantKept {
			t.Fatalf("row %d: ranked (%v, %d), sorted (%v, %d)", i, pred, kept, wantPred, wantKept)
		}
		for k, rk := range red.order {
			if tr := int(m.ranked[rk].tree); tr != wantOrder[k] {
				t.Fatalf("row %d: position %d holds tree %d, sorted order has %d", i, k, tr, wantOrder[k])
			}
		}
		if math.Float64bits(batch[i]) != math.Float64bits(wantPred) {
			t.Fatalf("row %d: PredictBatch %v, sorted %v", i, batch[i], wantPred)
		}
		r, err := m.Explain(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Prediction) != math.Float64bits(wantPred) || r.KeptTrees != wantKept {
			t.Fatalf("row %d: Explain (%v, %d), sorted (%v, %d)", i, r.Prediction, r.KeptTrees, wantPred, wantKept)
		}
	}
}

// randTree grows a random valid tree breadth-first with up to
// maxInternal splits; leaf values are rounded to quarters so equal
// |leaf − mean| ties across trees occur.
func randTree(r *rand.Rand, numFeat, maxInternal int) forest.Tree {
	nodes := []forest.Node{{}}
	queue := []int{0}
	internal := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if internal < maxInternal && r.Float64() < 0.8 {
			internal++
			l := len(nodes)
			nodes = append(nodes, forest.Node{}, forest.Node{})
			nodes[i] = forest.Node{
				Feature:   r.Intn(numFeat),
				Threshold: math.Round(r.NormFloat64()*8) / 8,
				Left:      l,
				Right:     l + 1,
				Gain:      r.Float64(),
			}
			queue = append(queue, l, l+1)
		} else {
			nodes[i] = forest.Node{Left: -1, Right: -1, Value: math.Round(r.NormFloat64()*4) / 4}
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		if n.IsLeaf() {
			n.Cover = float64(1 + r.Intn(50))
		} else {
			n.Cover = nodes[n.Left].Cover + nodes[n.Right].Cover
		}
	}
	return forest.Tree{Nodes: nodes}
}

// randModel fits a rule model on a random forest and returns it with
// random rows to reduce.
func randModel(t *testing.T, seed int64, numTrees, maxInternal int, obj forest.Objective) (*Model, [][]float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const numFeat = 4
	f := &forest.Forest{NumFeatures: numFeat, BaseScore: r.NormFloat64(), Objective: obj}
	for i := 0; i < numTrees; i++ {
		f.Trees = append(f.Trees, randTree(r, numFeat, maxInternal))
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("random forest: %v", err)
	}
	xs := make([][]float64, 150)
	for i := range xs {
		xs[i] = make([]float64, numFeat)
		for j := range xs[i] {
			xs[i][j] = math.Round(r.NormFloat64()*16) / 16
		}
	}
	m, err := Fit(context.Background(), f, &dataset.Dataset{X: xs, Y: f.PredictBatch(xs)}, Config{Tolerance: 0.01 + r.Float64()*0.1})
	if err != nil {
		t.Fatal(err)
	}
	return m, xs
}

func TestRankedReductionMatchesSort(t *testing.T) {
	fx, cfg := fixture(t)
	m, err := Fit(context.Background(), fx.f, fx.train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("regression", func(t *testing.T) { checkRankParity(t, m, fx.test.X) })

	t.Run("logistic", func(t *testing.T) {
		ds := dataset.GPrime(800, 0.05, 13)
		for i, y := range ds.Y {
			ds.Y[i] = 0
			if y > 2.5 {
				ds.Y[i] = 1
			}
		}
		f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 25, NumLeaves: 12, Objective: forest.BinaryLogistic, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		train := &dataset.Dataset{X: ds.X[:600], Y: f.PredictBatch(ds.X[:600])}
		m, err := Fit(context.Background(), f, train, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkRankParity(t, m, ds.X[600:])
	})

	t.Run("more than 64 leaves per tree", func(t *testing.T) {
		ds := dataset.GPrime(3000, 0.05, 17)
		f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 8, NumLeaves: 100, MinSamplesLeaf: 5, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if leaves := (forest.Compiled(f).TreeNodes(0) + 1) / 2; leaves <= 64 {
			t.Fatalf("fixture tree 0 has %d leaves, want > 64", leaves)
		}
		train := &dataset.Dataset{X: ds.X[:2500], Y: f.PredictBatch(ds.X[:2500])}
		m, err := Fit(context.Background(), f, train, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkRankParity(t, m, ds.X[2500:])
	})

	t.Run("random forests", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			obj := forest.Regression
			if seed%2 == 0 {
				obj = forest.BinaryLogistic
			}
			m, xs := randModel(t, seed, 1+int(seed%7)*9, int(seed*5%90), obj)
			checkRankParity(t, m, xs)
		}
	})
}

// FuzzRankOrder checks the ranked reduction against the sort it
// replaced on random forests, leaf-only trees included.
func FuzzRankOrder(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(20), false)
	f.Add(int64(2), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(40), uint8(90), false)
	f.Fuzz(func(t *testing.T, seed int64, trees, internal uint8, logistic bool) {
		obj := forest.Regression
		if logistic {
			obj = forest.BinaryLogistic
		}
		m, xs := randModel(t, seed, 1+int(trees%64), int(internal%100), obj)
		checkRankParity(t, m, xs)
	})
}
