package forest

import (
	"context"
	"fmt"
	"math/bits"

	"gef/internal/par"
)

// Grid describes rows drawn from a discrete per-feature domain grid —
// GEF's synthetic D*: each selected feature takes one of a fixed list of
// points and every other feature holds a fixed fill value. Every value
// a row can carry is known before any row is drawn, so the forest can be
// evaluated per (feature, point) once instead of per row.
type Grid struct {
	// Features are the varying features, each distinct.
	Features []int
	// Points[k] is the domain of Features[k]. Order is free and
	// duplicates are allowed: points are only ever addressed by index.
	Points [][]float64
	// Fill holds the full-width fixed values; the entries of Features
	// are ignored.
	Fill []float64
}

// gridTableBytes bounds the leaf-mask table one block of trees builds:
// trees are labeled in blocks whose table fits, so the table stays
// cache-resident while every row streams through it and memory stays
// bounded however large the forest is.
const gridTableBytes = 512 << 10

// gridMinBlockTrees is the smallest tree block for which the grid
// labeler pays: when even this many single-word trees overflow the
// table bound, per-row table reads miss cache and the flat walk wins.
// Measured on a 200-tree, 32-leaf forest with 5 varying features
// (|D*| = 50000, one core): 10000 points label 2.4× faster than the
// walk, 22500 break even, 100000 take 2.4× longer.
const gridMinBlockTrees = 4

// Pays reports whether labeling g's rows through PredictGridCtx is
// expected to beat the flat walk: the domains must be small enough that
// a block of gridMinBlockTrees trees' masks fits the table bound.
func (g *Grid) Pays() bool {
	return g.numPoints()*8*gridMinBlockTrees <= gridTableBytes
}

func (g *Grid) numPoints() int {
	n := 0
	for _, pts := range g.Points {
		n += len(pts)
	}
	return n
}

// PredictGridCtx writes the prediction of every grid row to out, bitwise
// identical to PredictBatchInto on the materialized rows. Row r sets
// Features[k] to Points[k][codes[r*len(Features)+k]] and every other
// feature j to Fill[j]; uint16 codes address up to 65536 points per
// domain, far beyond any grid that Pays.
//
// Leaves of each tree are numbered left to right, so every subtree owns
// a contiguous run of leaf numbers. For each (feature, point, tree) a
// bitmask keeps the leaves the point can still reach: every node on
// that feature compares the point with `x ≤ threshold` — the walk's own
// comparison — and clears the leaves of the side the walk does not
// take. The fill values fold into one initial mask per tree the same
// way. A row's exit leaf in a tree is then the AND of the initial mask
// and its points' masks: the leaves outside the exit path are each
// cleared at their branch-off node, and the exit leaf is never cleared,
// so exactly one leaf survives and the lowest set bit is the leaf the
// walk reaches (the QuickScorer observation). Each row accumulates
// BaseScore and then the exit-leaf values in tree order, and
// binary-logistic forests apply Sigmoid afterwards — the same additions
// in the same order as PredictBatchInto, hence the same bits.
//
// Trees are processed in blocks whose mask table stays within
// gridTableBytes (one tree at minimum); within a block, rows run in
// parallel over fixed chunks with disjoint writes, so the result is
// identical at any worker count. Returns ctx.Err() if canceled.
func (fl *Flat) PredictGridCtx(ctx context.Context, g *Grid, codes []uint16, out []float64) error {
	ns := len(g.Features)
	if len(codes) != len(out)*ns || len(g.Points) != ns || len(g.Fill) != fl.NumFeatures {
		panic(fmt.Sprintf("forest: PredictGridCtx got %d codes for %d rows × %d features, %d domains, %d fill values for %d features",
			len(codes), len(out), ns, len(g.Points), len(g.Fill), fl.NumFeatures))
	}
	mKernelGrid.Add(int64(len(out)))
	for r := range out {
		out[r] = fl.BaseScore
	}
	gl := newGridLabeler(fl, g)
	for t0 := 0; t0 < fl.NumTrees; {
		t1 := gl.build(t0)
		if err := par.For(ctx, len(out), 0, func(_, lo, hi int) {
			gl.label(codes[lo*ns:hi*ns], out[lo:hi])
		}); err != nil {
			return err
		}
		t0 = t1
	}
	if fl.Objective == BinaryLogistic {
		for r, v := range out {
			out[r] = Sigmoid(v)
		}
	}
	return nil
}

// gridLabeler holds the mask tables of the current block of trees.
// Table layout: the words of point p of feature k start at
// (pointBase[k]+p)·blockWords; within them, tree i of the block owns
// words [wordOff[i], wordOff[i+1]). init holds the fill-folded initial
// masks in the same per-tree word layout. leafVal mirrors the bits: the
// leaf numbered l of the tree owning words from w0 sits at
// leafVal[w0·64+l], so a surviving bit b of word w is leafVal[w·64+b].
type gridLabeler struct {
	fl        *Flat
	g         *Grid
	featPos   []int // feature → position in g.Features, −1 when fixed
	pointBase []int // per selected feature: first table row
	numPoints int

	// Current block, rebuilt by build.
	trees      int       // trees in the block
	blockWords int       // Σ words over the block's trees
	wordOff    []int     // per block tree: first word; len trees+1
	leafVal    []float64 // leaf values by bit position, 64 slots per word
	init       []uint64
	table      []uint64

	// Scratch for leaf numbering, reused across trees.
	leafLo, leafHi []int32
	stack          []int32
	keep           []uint64 // a node's two keep masks, one tree's words each
}

func newGridLabeler(fl *Flat, g *Grid) *gridLabeler {
	gl := &gridLabeler{fl: fl, g: g, featPos: make([]int, fl.NumFeatures)}
	for j := range gl.featPos {
		gl.featPos[j] = -1
	}
	gl.pointBase = make([]int, len(g.Features))
	for k, j := range g.Features {
		gl.featPos[j] = k
		gl.pointBase[k] = gl.numPoints
		gl.numPoints += len(g.Points[k])
	}
	return gl
}

// treeLeaves returns tree t's leaf count: every node is a leaf or has
// two children, so leaves = (nodes+1)/2.
func (fl *Flat) treeLeaves(t int) int { return (fl.TreeNodes(t) + 1) / 2 }

// build fills the tables for the block of trees starting at t0 and
// returns the index one past its last tree. A tree with L leaves takes
// ⌈L/64⌉ words per table row.
func (gl *gridLabeler) build(t0 int) int {
	fl := gl.fl
	maxWords := max(gridTableBytes/8/max(gl.numPoints, 1), 1)
	gl.wordOff = append(gl.wordOff[:0], 0)
	words := 0
	t1 := t0
	for t1 < fl.NumTrees {
		w := (fl.treeLeaves(t1) + 63) / 64
		if t1 > t0 && words+w > maxWords {
			break
		}
		words += w
		gl.wordOff = append(gl.wordOff, words)
		t1++
	}
	gl.trees, gl.blockWords = t1-t0, words
	gl.init = resize(gl.init, words)
	gl.leafVal = resize(gl.leafVal, words*64)
	gl.table = resize(gl.table, gl.numPoints*words)
	for i := 0; i < gl.trees; i++ {
		gl.buildTree(t0+i, i)
	}
	return t1
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildTree numbers tree t's leaves left to right, records their values
// and fills the tree's words of init and of every table row.
func (gl *gridLabeler) buildTree(t, i int) {
	fl := gl.fl
	root := fl.offset[t]
	n := int(fl.offset[t+1] - root)
	gl.leafLo = resize(gl.leafLo, n)
	gl.leafHi = resize(gl.leafHi, n)
	w0, w1 := gl.wordOff[i], gl.wordOff[i+1]
	gl.keep = resize(gl.keep, 2*(w1-w0))

	// Depth-first, left before right, with an explicit stack (trees can
	// be arbitrarily deep): a node's leaf run opens at the count when it
	// is entered and closes when it is left (marked by a negated entry).
	next := int32(0)
	gl.stack = append(gl.stack[:0], root)
	for len(gl.stack) > 0 {
		v := gl.stack[len(gl.stack)-1]
		gl.stack = gl.stack[:len(gl.stack)-1]
		if v < 0 {
			gl.leafHi[^v-root] = next
			continue
		}
		gl.leafLo[v-root] = next
		if fl.IsLeaf(v) {
			gl.leafVal[w0*64+int(next)] = fl.value[v]
			next++
			gl.leafHi[v-root] = next
			continue
		}
		k := fl.nodes[v].kids // right child; left at k+1
		gl.stack = append(gl.stack, ^v, k, k+1)
	}

	// Every leaf starts reachable; bits past the last leaf stay clear
	// (the word count comes from the node count, which also covers slots
	// unreachable from the root).
	for w := w0; w < w1; w++ {
		switch rem := int(next) - (w-w0)*64; {
		case rem >= 64:
			gl.init[w] = ^uint64(0)
		case rem > 0:
			gl.init[w] = 1<<uint(rem) - 1
		default:
			gl.init[w] = 0
		}
	}
	bw := gl.blockWords
	for p := 0; p < gl.numPoints; p++ {
		copy(gl.table[p*bw+w0:p*bw+w1], gl.init[w0:w1])
	}

	// Each internal node clears, for every value it sees, the leaf run
	// of the child the walk does not take (x ≤ threshold goes left).
	for v := root; v < root+int32(n); v++ {
		if fl.IsLeaf(v) {
			continue
		}
		nd := fl.nodes[v]
		right, left := nd.kids-root, nd.kids+1-root
		lLo, lHi := int(gl.leafLo[left]), int(gl.leafHi[left])
		rLo, rHi := int(gl.leafLo[right]), int(gl.leafHi[right])
		k := gl.featPos[nd.feature]
		if k < 0 {
			row := gl.init[w0:w1]
			if gl.g.Fill[nd.feature] <= nd.threshold {
				clearBits(row, rLo, rHi)
			} else {
				clearBits(row, lLo, lHi)
			}
			continue
		}
		// goLeft keeps every leaf but the right run, goRight every leaf
		// but the left run; each point ANDs in the one its value picks.
		goLeft, goRight := gl.keep[:w1-w0], gl.keep[w1-w0:2*(w1-w0)]
		for w := range goLeft {
			goLeft[w], goRight[w] = ^uint64(0), ^uint64(0)
		}
		clearBits(goLeft, rLo, rHi)
		clearBits(goRight, lLo, lHi)
		base := gl.pointBase[k]
		if w1-w0 == 1 {
			l, r := goLeft[0], goRight[0]
			for p, x := range gl.g.Points[k] {
				keep := r
				if x <= nd.threshold {
					keep = l
				}
				gl.table[(base+p)*bw+w0] &= keep
			}
			continue
		}
		for p, x := range gl.g.Points[k] {
			row := gl.table[(base+p)*bw+w0 : (base+p)*bw+w1]
			keep := goRight
			if x <= nd.threshold {
				keep = goLeft
			}
			for w := range row {
				row[w] &= keep[w]
			}
		}
	}
}

// clearBits clears bits [lo, hi) of the bitset row.
func clearBits(row []uint64, lo, hi int) {
	for lo < hi {
		w, b := lo/64, uint(lo%64)
		span := min(hi-lo, 64-int(b))
		row[w] &^= (^uint64(0) >> (64 - uint(span))) << b
		lo += span
	}
}

// label adds the current block's exit-leaf values to the rows whose
// codes are given, tree by tree in tree order. A row's masks for the
// whole block are ANDed word-parallel first, four features per pass;
// each tree then holds exactly one surviving bit (see PredictGridCtx),
// so the scan for its nonzero word stops inside the tree's own words.
// Rows go four at a time so their four dependent chains of additions
// overlap; each row's own additions keep tree order.
func (gl *gridLabeler) label(codes []uint16, out []float64) {
	ns := len(gl.g.Features)
	bw := gl.blockWords
	m := make([]uint64, 4*bw)
	m0, m1, m2, m3 := m[:bw], m[bw:2*bw], m[2*bw:3*bw], m[3*bw:]
	vals, wordOff := gl.leafVal, gl.wordOff[:gl.trees]
	r := 0
	for ; r+4 <= len(out); r += 4 {
		gl.mask(m0, codes[r*ns:(r+1)*ns])
		gl.mask(m1, codes[(r+1)*ns:(r+2)*ns])
		gl.mask(m2, codes[(r+2)*ns:(r+3)*ns])
		gl.mask(m3, codes[(r+3)*ns:(r+4)*ns])
		s0, s1, s2, s3 := out[r], out[r+1], out[r+2], out[r+3]
		for _, w := range wordOff {
			s0 += vals[exitBit(m0, w)]
			s1 += vals[exitBit(m1, w)]
			s2 += vals[exitBit(m2, w)]
			s3 += vals[exitBit(m3, w)]
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		gl.mask(m0, codes[r*ns:(r+1)*ns])
		s := out[r]
		for _, w := range wordOff {
			s += vals[exitBit(m0, w)]
		}
		out[r] = s
	}
}

// exitBit returns the bit position, counted across words, of the one
// leaf surviving in the tree whose words start at w.
func exitBit(m []uint64, w int) int {
	for m[w] == 0 {
		w++
	}
	return w*64 + bits.TrailingZeros64(m[w])
}

// mask writes into m the AND of the block's initial masks and the masks
// of the row's points (c holds the row's code per selected feature).
func (gl *gridLabeler) mask(m []uint64, c []uint16) {
	bw := len(m)
	table, pointBase := gl.table, gl.pointBase[:len(c)]
	row := func(k int) []uint64 {
		o := (pointBase[k] + int(c[k])) * bw
		return table[o : o+bw : o+bw][:len(m)]
	}
	k := 0
	if len(c) >= 4 {
		r0, r1, r2, r3 := row(0), row(1), row(2), row(3)
		init := gl.init[:len(m)]
		for w := range m {
			m[w] = init[w] & r0[w] & r1[w] & r2[w] & r3[w]
		}
		k = 4
	} else {
		copy(m, gl.init)
	}
	for ; k+4 <= len(c); k += 4 {
		r0, r1, r2, r3 := row(k), row(k+1), row(k+2), row(k+3)
		for w := range m {
			m[w] &= r0[w] & r1[w] & r2[w] & r3[w]
		}
	}
	for ; k < len(c); k++ {
		r0 := row(k)
		for w := range m {
			m[w] &= r0[w]
		}
	}
}
