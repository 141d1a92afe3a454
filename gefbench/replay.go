package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/obs"
	"gef/internal/rules"
	"gef/internal/sampling"
	"gef/internal/shap"
	"gef/internal/smoother"
)

// layerValues collects one value per replayed request for each
// per-layer metric; the metric is their median.
type layerValues map[string][]float64

func (l layerValues) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerValues) median(name string) float64 {
	if len(l[name]) == 0 {
		return 0
	}
	return median(l[name])
}

// stageSet names the engine stages that computed (missed the artifact
// cache) during one explain.
type stageSet map[string]bool

func computedStages(before, after core.CacheStats) stageSet {
	ran := stageSet{}
	for name, st := range after.Stages {
		if st.Misses > before.Stages[name].Misses {
			ran[name] = true
		}
	}
	return ran
}

// replayer re-runs sampled requests layer by layer through the public
// functions of each module, recording a span around every call. A stage
// the engine served from its cache is still evaluated (its output feeds
// the next stage) but off the clock and recorded as 0, so each layer's
// numbers describe the work the workload actually asks of it.
type replayer struct {
	tr  *tracer
	lay layerValues
	// basis is the gam basis cache the replayed fits share, as the
	// engine's fits share its own; nil gives every fit a fresh cache.
	basis *gam.BasisCache
}

// explain times one direct Engine.ExplainCtx call (with its allocation
// volume) and the serialization of its result, and returns the
// explanation with the stages that computed.
func (r *replayer) explain(ctx context.Context, eng *core.Engine, f *forest.Forest, cfg core.Config, parent, req uint64) (*core.Explanation, stageSet, error) {
	before := eng.CacheStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := r.tr.open("core.explain", parent, req)
	ex, err := eng.ExplainCtx(ctx, f, cfg)
	d := sp.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, fmt.Errorf("direct explain: %w", err)
	}
	r.lay.add("core.explain_ms", ms(d))
	r.lay.add("core.alloc_mb_per_explain", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	sp = r.tr.open("core.marshal", parent, req)
	blob, err := ex.Marshal(false)
	d = sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("marshal: %w", err)
	}
	r.lay.add("core.marshal_ms", ms(d))
	r.lay.add("core.marshal_bytes", float64(len(blob)))
	return ex, computedStages(before, eng.CacheStats()), nil
}

// step runs fn as the named layer call when the stage is on the request's
// path (timed, with a span), or off the clock otherwise.
func (r *replayer) step(name string, onPath bool, parent, req uint64, fn func() error) (time.Duration, error) {
	if !onPath {
		return 0, fn()
	}
	sp := r.tr.open(name, parent, req)
	err := fn()
	return sp.end(), err
}

// chain replays the explain pipeline for cfg with the functions the
// engine's stages call: feature statistics, featsel over those
// statistics, sampling domains over the cached thresholds, D* generation
// and labeling, interaction ranking, the family's fit and its fidelity
// predictions on the held-out split. ran marks the stages the engine
// computed for this request; ex is the engine's answer, which the
// replayed model must reproduce bitwise, so the replay cannot drift from
// the pipeline it times.
func (r *replayer) chain(ctx context.Context, f *forest.Forest, cfg core.Config, ex *core.Explanation, ran stageSet, parent, req uint64) error {
	cfg = effective(cfg)
	var (
		thr         map[int][]float64
		imp         []float64
		used, feats []int
		dom         *sampling.Domains
		train, test *dataset.Dataset
		dstarX      [][]float64
		pairs       []featsel.Pair
	)
	add := func(name string, d time.Duration) { r.lay.add(name, ms(d)) }
	// The engine's stats stage computes all three in one artifact.
	_, _ = r.step("forest.stats", ran["stats"], parent, req, func() error {
		thr, imp, used = f.ThresholdsByFeature(), f.GainImportance(), f.UsedFeatures()
		return nil
	})
	d, _ := r.step("featsel.top_features", ran["featsel"], parent, req, func() error {
		// The featsel stage ranks every used feature; the pipeline keeps
		// the top-k prefix.
		ranking := featsel.TopFeaturesRanked(imp, used, len(used))
		feats = append([]int(nil), ranking[:min(cfg.NumUnivariate, len(ranking))]...)
		return nil
	})
	add("featsel.top_features_ms", d)
	d, err := r.step("sampling.build_domains", ran["domains"], parent, req, func() error {
		var err error
		dom, err = sampling.BuildDomainsFromCtx(ctx, f.NumFeatures, thr, feats, cfg.Sampling)
		return err
	})
	if err != nil {
		return fmt.Errorf("build domains: %w", err)
	}
	add("sampling.build_domains_ms", d)
	d, err = r.step("sampling.generate", ran["sample"], parent, req, func() error {
		ds, err := sampling.GenerateCtx(ctx, f, dom, cfg.NumSamples, cfg.Seed+2)
		if err != nil {
			return err
		}
		dstarX = ds.X
		train, test = ds.Split(cfg.TestFraction, cfg.Seed+3)
		return nil
	})
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	add("sampling.generate_ms", d)
	if d > 0 {
		r.lay.add("sampling.rows_per_s", float64(cfg.NumSamples)/d.Seconds())
	} else {
		r.lay.add("sampling.rows_per_s", 0)
	}
	d = 0
	if cfg.NumInteractions > 0 && len(feats) >= 2 {
		d, err = r.step("featsel.rank_interactions", ran["interactions"], parent, req, func() error {
			ranked, err := featsel.RankInteractionsCtx(ctx, f, feats, cfg.InteractionStrategy, nil)
			pairs = ranked[:min(cfg.NumInteractions, len(ranked))]
			return err
		})
		if err != nil {
			return fmt.Errorf("rank interactions: %w", err)
		}
	}
	add("featsel.rank_interactions_ms", d)

	// The flat labeling kernel at |D*| rows is timed on every request,
	// whether or not the sample stage ran: it is the kernel's rate.
	out := make([]float64, len(dstarX))
	fl := forest.Compiled(f)
	sp := r.tr.open("forest.flat_predict", parent, req)
	fl.PredictBatchInto(dstarX, out)
	d = sp.end()
	r.lay.add("forest.flat_ns_per_row", float64(d.Nanoseconds())/float64(len(dstarX)))

	preds, err := r.fit(ctx, f, cfg, ran, thr, feats, pairs, train, test, parent, req)
	if err != nil {
		return err
	}
	want, err := ex.Surrogate.PredictBatch(ctx, test.X)
	if err != nil {
		return fmt.Errorf("engine model predict: %w", err)
	}
	if !equalBits(preds, want) {
		return fmt.Errorf("the replayed %s model predicts the held-out split unlike the engine's", cfg.Family)
	}
	return nil
}

// fit replays the family's fit stage and the fidelity predictions on the
// held-out split that every explain computes, and returns those
// predictions.
func (r *replayer) fit(ctx context.Context, f *forest.Forest, cfg core.Config, ran stageSet,
	thr map[int][]float64, feats []int, pairs []featsel.Pair, train, test *dataset.Dataset, parent, req uint64) ([]float64, error) {
	var pred func() error
	var preds []float64
	var fitD time.Duration
	var err error
	switch cfg.Family {
	case core.FamilyGAM:
		// Fitted GAMs are not cached by the engine: every explain refits.
		basis := r.basis
		if basis == nil {
			basis = gam.NewBasisCache()
		}
		var m *gam.Model
		fitD, err = r.step("gam.fit", true, parent, req, func() error {
			var err error
			m, err = gam.FitCache(ctx, gamSpec(f, thr, feats, pairs, cfg), train.X, train.Y, cfg.GAM, basis)
			return err
		})
		pred = func() error { preds = m.PredictBatch(test.X); return nil }
		r.lay.add("gam.fit_ms", ms(fitD))
	case core.FamilyRules:
		var m *rules.Model
		fitD, err = r.step("rules.fit", ran["fit"], parent, req, func() error {
			var err error
			m, err = rules.Fit(ctx, f, train, cfg.Rules)
			return err
		})
		pred = func() error {
			var err error
			preds, err = m.PredictBatch(ctx, test.X)
			return err
		}
	case core.FamilySmoother:
		var m *smoother.Model
		fitD, err = r.step("smoother.fit", ran["fit"], parent, req, func() error {
			var err error
			m, err = smoother.Fit(ctx, f, feats, train, cfg.Smoother)
			return err
		})
		pred = func() error {
			var err error
			preds, err = m.PredictBatch(ctx, test.X)
			return err
		}
		r.lay.add("smoother.fit_ms", ms(fitD))
	default:
		return nil, fmt.Errorf("no replay for family %q", cfg.Family)
	}
	if err != nil {
		return nil, fmt.Errorf("%s fit: %w", cfg.Family, err)
	}
	predD, err := r.step(cfg.Family+".predict", true, parent, req, pred)
	if err != nil {
		return nil, fmt.Errorf("%s predict: %w", cfg.Family, err)
	}
	switch cfg.Family {
	case core.FamilyRules:
		// Rule reduction runs per row at predict time, so the fidelity
		// pass re-runs it on every explain, cache hit or not.
		r.lay.add("rules.fit_ms", ms(fitD+predD))
	case core.FamilySmoother:
		r.lay.add("smoother.predict_ns_per_row", float64(predD.Nanoseconds())/float64(len(test.X)))
	}
	return preds, nil
}

// shapValues times one path-dependent TreeSHAP call and counts the tree
// nodes it visited (from the shap module's own counter).
func (r *replayer) shapValues(f *forest.Forest, x []float64, parent, req uint64) error {
	visits := obs.Metrics().Counter("shap.node_visits")
	v0 := visits.Value()
	sp := r.tr.open("shap.values", parent, req)
	phi, base := shap.Values(f, x)
	d := sp.end()
	r.lay.add("shap.values_us", float64(d.Nanoseconds())/1e3)
	r.lay.add("shap.node_visits", float64(visits.Value()-v0))
	return checkShap(f, x, phi, base)
}

// effective fills the defaults core.Config.withDefaults applies to the
// fields the replay reads.
func effective(c core.Config) core.Config {
	if c.Family == "" {
		c.Family = core.FamilyGAM
	}
	if c.NumUnivariate == 0 {
		c.NumUnivariate = 5
	}
	if c.InteractionStrategy == "" {
		c.InteractionStrategy = featsel.GainPath
	}
	if c.TestFraction == 0 {
		c.TestFraction = 0.2
	}
	if c.CategoricalThreshold == 0 {
		c.CategoricalThreshold = 10
	}
	if c.SplineBasis == 0 {
		c.SplineBasis = 12
	}
	if c.TensorBasis == 0 {
		c.TensorBasis = 6
	}
	if c.Sampling.Seed == 0 {
		c.Sampling.Seed = c.Seed + 1
	}
	if c.Sampling.CategoricalThreshold == 0 {
		c.Sampling.CategoricalThreshold = c.CategoricalThreshold
	}
	return c
}

// gamSpec builds the GAM structure the engine fits: a spline per
// selected feature, a factor where the forest has fewer than L distinct
// thresholds, and a tensor per selected pair.
func gamSpec(f *forest.Forest, thr map[int][]float64, feats []int, pairs []featsel.Pair, cfg core.Config) gam.Spec {
	spec := gam.Spec{Link: gam.Identity}
	if f.Objective == forest.BinaryLogistic {
		spec.Link = gam.Logit
	}
	for _, j := range feats {
		if distinct(thr[j]) < cfg.CategoricalThreshold {
			spec.Terms = append(spec.Terms, gam.TermSpec{Kind: gam.Factor, Feature: j})
		} else {
			spec.Terms = append(spec.Terms, gam.TermSpec{Kind: gam.Spline, Feature: j, NumBasis: cfg.SplineBasis})
		}
	}
	for _, p := range pairs {
		spec.Terms = append(spec.Terms, gam.TermSpec{Kind: gam.Tensor, Feature: p.I, Feature2: p.J, NumBasis: cfg.TensorBasis})
	}
	return spec
}

func distinct(xs []float64) int {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := 0
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			n++
		}
	}
	return n
}
