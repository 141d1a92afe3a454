// Package rules implements the conclusive-local-rule surrogate family:
// per-prediction reduced conjunctive rules in the spirit of LionForests
// ("Conclusive Local Interpretation Rules for Random Forests", see
// PAPERS.md), adapted to additive gradient-boosted forests. For one
// instance the forest's prediction is re-expressed as a conjunction of
// feature ranges — the intersection of the root-to-leaf path constraints
// of a *reduced* tree set, the smallest prefix (ordered by how far each
// tree's leaf deviates from that tree's mean response) whose prediction
// stays within a tolerance of the full forest. Dropped trees contribute
// their mean, so the reduced prediction is a faithful, bounded
// approximation rather than a truncation.
//
// Unlike the GAM and smoother families the fitted artifact is tiny (a
// compiled forest view plus one tolerance); all per-instance work runs
// at explanation time through the flat-forest kernels and internal/par,
// with the usual bitwise-determinism contract (fixed traversal and
// reduction order at any worker count).
package rules

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
)

// Config controls rule reduction.
type Config struct {
	// Tolerance is the maximum deviation of the reduced-forest
	// prediction from the full forest, as a fraction of the forest's
	// output spread on the fitting sample (default 0.02). Smaller keeps
	// more trees and longer rules.
	Tolerance float64
	// SummarySample bounds the rows used to estimate the mean kept-tree
	// fraction recorded in the fitted summary (default 256).
	SummarySample int
}

// WithDefaults fills zero knobs with the package defaults. Idempotent;
// exported so the engine can derive cache keys from the effective
// configuration rather than the raw one.
func (c Config) WithDefaults() Config {
	if c.Tolerance == 0 {
		c.Tolerance = 0.02
	}
	if c.SummarySample == 0 {
		c.SummarySample = 256
	}
	return c
}

// Summary is the serializable description of a fitted rule model: the
// structural knobs plus the reduction statistics measured at fit time.
// It is all a reloaded explanation retains — predicting again needs the
// source forest (like EvaluateOn on a reloaded GAM explanation).
type Summary struct {
	// Tolerance echoes Config.Tolerance (relative).
	Tolerance float64 `json:"tolerance"`
	// AbsTolerance is the resolved absolute tolerance on the response
	// scale (Tolerance × output spread of the fitting sample).
	AbsTolerance float64 `json:"abs_tolerance"`
	// NumTrees is the full forest size rules reduce from.
	NumTrees int `json:"num_trees"`
	// MeanKeptTrees is the average number of trees a rule keeps,
	// measured over SampleRows fitting rows.
	MeanKeptTrees float64 `json:"mean_kept_trees"`
	// SampleRows is the number of rows behind MeanKeptTrees.
	SampleRows int `json:"sample_rows"`
}

// Model is a fitted rule surrogate. A model fitted by Fit predicts and
// extracts rules; a model reloaded via FromSummary only reports its
// Summary (Predict returns NaN — the forest is not serialized).
type Model struct {
	f       *forest.Forest
	fl      *forest.Flat
	rank    []int32      // leaf node index → reduction rank (leaves only)
	ranked  []rankedLeaf // rank → the leaf's tree and diff
	summary Summary
}

// rankedLeaf is one leaf in reduction-rank order: its tree and its
// value's deviation from the tree mean.
type rankedLeaf struct {
	tree int32
	diff float64
}

// Term is one conjunct of a rule: a half-open or bounded range on a
// feature. Lo is -Inf and Hi is +Inf when the side is unconstrained.
type Term struct {
	Feature int
	Lo, Hi  float64
}

// Rule is the reduced conjunctive explanation of one prediction.
type Rule struct {
	// Terms are the intersected path constraints of the kept trees, in
	// feature order. x satisfies Lo < x[Feature] ≤ Hi for every term.
	Terms []Term
	// Prediction is the reduced-forest prediction (response scale); it
	// deviates from the full forest by at most the fitted tolerance.
	Prediction float64
	// ForestPrediction is the full forest's prediction for cross-checking.
	ForestPrediction float64
	// KeptTrees of TotalTrees survived the reduction.
	KeptTrees, TotalTrees int
}

// Fit prepares the rule surrogate over the shared D* artifacts: it
// compiles the forest once, resolves the relative tolerance against the
// output spread of train's labels (the forest's own responses), and
// measures the mean reduction on a bounded sample of train rows.
func Fit(ctx context.Context, f *forest.Forest, train *dataset.Dataset, cfg Config) (*Model, error) {
	cfg = cfg.WithDefaults()
	if train == nil || len(train.X) == 0 {
		return nil, fmt.Errorf("rules: empty fitting sample: %w", robust.ErrDegenerate)
	}
	_, sp := obs.Start(ctx, "rules.fit",
		obs.Int("trees", len(f.Trees)), obs.Int("train_rows", len(train.X)))
	defer sp.End()

	lo, hi := train.Y[0], train.Y[0]
	for _, y := range train.Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	fl := forest.Compiled(f)
	rank, ranked := rankLeaves(fl)
	m := &Model{
		f:      f,
		fl:     fl,
		rank:   rank,
		ranked: ranked,
		summary: Summary{
			Tolerance:    cfg.Tolerance,
			AbsTolerance: math.Max(cfg.Tolerance*(hi-lo), 1e-12),
			NumTrees:     len(f.Trees),
		},
	}

	// Reduction statistics on a bounded prefix of train, parallelized
	// per row (each row's reduction is independent, so chunked execution
	// is bitwise identical to serial).
	n := min(cfg.SummarySample, len(train.X))
	kept := make([]int, n)
	if err := par.For(ctx, n, 0, func(_, lo, hi int) {
		m.newReducer().reduceRows(train.X[lo:hi], func(i int, _ float64, k int) { kept[lo+i] = k })
	}); err != nil {
		return nil, robust.CtxErr(err)
	}
	total := 0
	for _, k := range kept {
		total += k
	}
	m.summary.SampleRows = n
	m.summary.MeanKeptTrees = float64(total) / float64(n)
	sp.Set(obs.F64("mean_kept_trees", m.summary.MeanKeptTrees),
		obs.F64("abs_tolerance", m.summary.AbsTolerance))
	return m, nil
}

// FromSummary reconstructs the serialized view of a rule model. The
// result reports its Summary; Predict returns NaN and Explain returns
// an error, because the source forest is not part of the payload.
func FromSummary(s Summary) *Model { return &Model{summary: s} }

// Summary returns the fit-time reduction statistics.
func (m *Model) Summary() Summary { return m.summary }

// Fitted reports whether the model carries its forest (false after
// FromSummary) and can therefore predict and extract rules.
func (m *Model) Fitted() bool { return m.fl != nil }

// Predict returns the reduced-forest prediction for x on the response
// scale — the value the instance's rule concludes with. On a reloaded
// (summary-only) model it returns NaN.
func (m *Model) Predict(x []float64) float64 {
	if !m.Fitted() {
		return math.NaN()
	}
	pred, _ := m.newReducer().reduce(x)
	return pred
}

// PredictBatch evaluates the reduced prediction for every row,
// parallelized over rows with the bitwise-determinism contract. Leaves
// come from the flat batch kernel one block of rows at a time, so no
// row walks the trees on its own.
func (m *Model) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	out := make([]float64, len(xs))
	if !m.Fitted() {
		for i := range out {
			out[i] = math.NaN()
		}
		return out, nil
	}
	if err := par.For(ctx, len(xs), 0, func(_, lo, hi int) {
		m.newReducer().reduceRows(xs[lo:hi], func(i int, pred float64, _ int) { out[lo+i] = pred })
	}); err != nil {
		return nil, robust.CtxErr(err)
	}
	return out, nil
}

// Explain extracts the reduced conjunctive rule for x.
func (m *Model) Explain(x []float64) (*Rule, error) {
	if !m.Fitted() {
		return nil, fmt.Errorf("rules: model was reloaded without its forest; re-fit to extract rules")
	}
	red := m.newReducer()
	pred, k := red.reduce(x)
	r := &Rule{
		Prediction:       pred,
		ForestPrediction: m.f.Predict(x),
		KeptTrees:        k,
		TotalTrees:       m.fl.NumTrees,
	}

	// Intersect the root-to-leaf path constraints of the kept trees into
	// per-feature (lo, hi] ranges, mirroring the flat traversal exactly
	// (x ≤ threshold goes left, so NaN falls right like the kernels).
	los := map[int]float64{}
	his := map[int]float64{}
	for _, rk := range red.order[:k] {
		i := m.fl.TreeRoot(int(m.ranked[rk].tree))
		for !m.fl.IsLeaf(i) {
			j := int(m.fl.Feature(i))
			thr := m.fl.Threshold(i)
			if x[j] <= thr {
				if h, ok := his[j]; !ok || thr < h {
					his[j] = thr
				}
				if _, ok := los[j]; !ok {
					los[j] = math.Inf(-1)
				}
				i = m.fl.Left(i)
			} else {
				if l, ok := los[j]; !ok || thr > l {
					los[j] = thr
				}
				if _, ok := his[j]; !ok {
					his[j] = math.Inf(1)
				}
				i = m.fl.Right(i)
			}
		}
	}
	feats := make([]int, 0, len(los))
	for j := range los {
		feats = append(feats, j)
	}
	sort.Ints(feats)
	for _, j := range feats {
		r.Terms = append(r.Terms, Term{Feature: j, Lo: los[j], Hi: his[j]})
	}
	return r, nil
}

// String renders the rule as "f1 > 0.2 AND f3 ∈ (0.1, 0.8] → 4.21".
func (r *Rule) String() string {
	var b strings.Builder
	if len(r.Terms) == 0 {
		b.WriteString("always")
	}
	for i, t := range r.Terms {
		if i > 0 {
			b.WriteString(" AND ")
		}
		switch {
		case math.IsInf(t.Lo, -1) && math.IsInf(t.Hi, 1):
			fmt.Fprintf(&b, "f%d ∈ ℝ", t.Feature)
		case math.IsInf(t.Lo, -1):
			fmt.Fprintf(&b, "f%d ≤ %.4g", t.Feature, t.Hi)
		case math.IsInf(t.Hi, 1):
			fmt.Fprintf(&b, "f%d > %.4g", t.Feature, t.Lo)
		default:
			fmt.Fprintf(&b, "f%d ∈ (%.4g, %.4g]", t.Feature, t.Lo, t.Hi)
		}
	}
	fmt.Fprintf(&b, " → %.4g (%d/%d trees)", r.Prediction, r.KeptTrees, r.TotalTrees)
	return b.String()
}

// rankLeaves orders every (tree, leaf) pair of fl once by the reduction
// comparator — |leaf − tree mean| descending, tree ascending — with the
// node index as a last tie-break so the ranks are unique. One row holds
// one leaf per tree, so the ranks of its leaves order its trees exactly
// as sorting their (|diff|, tree) keys would: the comparator is a total
// order on those keys (Validate rejects non-finite leaves).
func rankLeaves(fl *forest.Flat) (rank []int32, ranked []rankedLeaf) {
	type leafKey struct {
		abs, diff  float64
		tree, node int32
	}
	var keys []leafKey
	for t := 0; t < fl.NumTrees; t++ {
		root := fl.TreeRoot(t)
		for i := root; i < root+int32(fl.TreeNodes(t)); i++ {
			if fl.IsLeaf(i) {
				d := fl.Value(i) - fl.TreeMean(t)
				keys = append(keys, leafKey{abs: math.Abs(d), diff: d, tree: int32(t), node: i})
			}
		}
	}
	slices.SortFunc(keys, func(a, b leafKey) int {
		switch {
		case a.abs > b.abs:
			return -1
		case a.abs < b.abs:
			return 1
		case a.tree != b.tree:
			return int(a.tree - b.tree)
		}
		return int(a.node - b.node)
	})
	rank = make([]int32, fl.NumNodes())
	ranked = make([]rankedLeaf, len(keys))
	for r, k := range keys {
		rank[k.node] = int32(r)
		ranked[r] = rankedLeaf{tree: k.tree, diff: k.diff}
	}
	return rank, ranked
}

// reducer holds per-goroutine scratch for the per-instance reduction so
// parallel rows never share state.
type reducer struct {
	m        *Model
	order    []int32   // the row's leaf ranks, ascending: its trees in reduction order
	seen     []uint64  // bitmap over ranks; all zero between rows
	suffixes []float64 // dropped-diff suffix sums, len trees+1
	leaves   []int32   // per-row leaf indices; leafBlock rows × trees once batched
}

// leafBlock is the number of rows whose leaves one batched kernel call
// fills. Each parallel chunk holds leafBlock × trees leaf indices, so
// the block stays small (a 128-row block costs ~1 MiB of peak RSS on a
// 200-tree forest and runs no faster).
const leafBlock = 32

func (m *Model) newReducer() *reducer {
	nt := m.fl.NumTrees
	return &reducer{
		m:        m,
		order:    make([]int32, nt),
		seen:     make([]uint64, (len(m.ranked)+63)/64),
		suffixes: make([]float64, nt+1),
	}
}

// reduce computes the reduced prediction for one row, walking each tree
// on its own (the single-row path).
func (red *reducer) reduce(x []float64) (pred float64, kept int) {
	nt := red.m.fl.NumTrees
	if cap(red.leaves) < nt {
		red.leaves = make([]int32, nt)
	}
	leaves := red.leaves[:nt]
	for t := range leaves {
		leaves[t] = red.m.fl.Leaf(t, x)
	}
	return red.reduceLeaves(leaves)
}

// reduceRows reduces every row of xs, taking the leaves of each block
// of leafBlock rows from one LeavesBatch call (which routes exactly like
// Leaf), and hands row i's result to emit.
func (red *reducer) reduceRows(xs [][]float64, emit func(i int, pred float64, kept int)) {
	nt := red.m.fl.NumTrees
	if cap(red.leaves) < leafBlock*nt {
		red.leaves = make([]int32, leafBlock*nt)
	}
	for lo := 0; lo < len(xs); lo += leafBlock {
		hi := min(lo+leafBlock, len(xs))
		leaves := red.leaves[:(hi-lo)*nt]
		red.m.fl.LeavesBatch(xs[lo:hi], leaves)
		for r := 0; r < hi-lo; r++ {
			pred, kept := red.reduceLeaves(leaves[r*nt : (r+1)*nt])
			emit(lo+r, pred, kept)
		}
	}
}

// reduceLeaves computes the reduced prediction for a row given its leaf
// in every tree: trees are ordered by how far their leaf deviates from
// the tree mean, and the shortest prefix whose prediction (kept leaves +
// dropped trees' means) stays within the absolute tolerance of the full
// forest wins. Returns the reduced response-scale prediction and the
// kept-tree count. The order comes from the precomputed leaf ranks: the
// row's ranks are set in a bitmap and read back in ascending order. The
// suffix scan is a fixed serial order, so results are bitwise identical
// at any worker count.
func (red *reducer) reduceLeaves(leaves []int32) (pred float64, kept int) {
	m, fl := red.m, red.m.fl
	nt := fl.NumTrees
	fullRaw := fl.BaseScore
	for _, leaf := range leaves {
		fullRaw += fl.Value(leaf)
		r := m.rank[leaf]
		red.seen[r>>6] |= 1 << (r & 63)
	}
	n := 0
	for w, word := range red.seen {
		if word == 0 {
			continue
		}
		red.seen[w] = 0
		for ; word != 0; word &= word - 1 {
			red.order[n] = int32(w<<6 | bits.TrailingZeros64(word))
			n++
		}
	}
	full := red.response(fullRaw)
	// suffixes[k] = Σ diffs of the dropped trees when keeping order[:k];
	// walking k upward finds the minimal prefix within tolerance.
	suffix := 0.0
	for k := nt - 1; k >= 0; k-- {
		suffix += m.ranked[red.order[k]].diff
		red.suffixes[k] = suffix
	}
	red.suffixes[nt] = 0
	absTol := m.summary.AbsTolerance
	for k := 0; k <= nt; k++ {
		p := red.response(fullRaw - red.suffixes[k])
		if math.Abs(p-full) <= absTol {
			return p, k
		}
	}
	return full, nt // unreachable: k = nt drops nothing
}

// response maps a raw additive score to the forest's response scale.
func (red *reducer) response(raw float64) float64 {
	if red.m.fl.Objective == forest.BinaryLogistic {
		return forest.Sigmoid(raw)
	}
	return raw
}
