package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	gefapi "gef"
	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/sampling"
)

// The cli-explain workload runs one gef process per explain, one at a
// time, on the forest forestgen writes with its defaults (g′, 8000 rows,
// 200 trees, 32 leaves). Each process uses the CLI defaults plus
// -interactions 1 -no-charts.
const (
	cliInteractions = 1
	cliSamples      = 50000 // gef's -n default
	cliK            = 256   // gef's -k default
	cliSplines      = 5     // gef's -splines default
	// cliShapPerRun is how many SHAP attributions follow each process.
	// The gef CLI has no SHAP mode, so on this workload shap_* time the
	// public gef.ShapValues call on the CLI's forest.
	cliShapPerRun = 4
)

// cliSeeds is the pool of gef -seed values; with the three families it
// forms the workload's fixed check set of six explanations.
var cliSeeds = []int64{1, 2}

// cliConfig is the core.Config the gef CLI builds from its flags.
func cliConfig(family string, seed int64) core.Config {
	return core.Config{
		Family:              family,
		NumUnivariate:       cliSplines,
		NumInteractions:     cliInteractions,
		InteractionStrategy: featsel.GainPath,
		NumSamples:          cliSamples,
		Sampling:            sampling.Config{Strategy: sampling.EquiSize, K: cliK},
		Seed:                seed,
	}
}

// setupCLI is the workload's set-up: forestgen trains and writes the
// forest, and the benchmark loads it for its checks.
func setupCLI(ctx context.Context, o *options) (string, *forest.Forest, time.Duration, error) {
	t0 := time.Now()
	path := filepath.Join(o.work, "cli-forest.json")
	cmd := exec.CommandContext(ctx, filepath.Join(o.bin, "forestgen"), "-gen", "gprime", "-out", path)
	cmd.Dir = o.work
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", nil, 0, fmt.Errorf("forestgen: %v: %s", err, out)
	}
	f, err := forest.LoadFile(path)
	if err != nil {
		return "", nil, 0, err
	}
	return path, f, time.Since(t0), nil
}

// cliCall is one gef process or one SHAP attribution.
type cliCall struct {
	id      uint64
	kind    string // "explain" or "shap"
	family  string
	seed    int64
	x       []float64
	at      time.Duration // start, since the window opened
	latency time.Duration
	rssKiB  int64
	stdout  []byte
	metrics string // -metrics-out file (traced calls)
	err     error
	root    uint64
	traced  bool
}

// cliPlanner yields the seeded call sequence: each cycle runs the three
// families in a seeded order with a seeded gef -seed, then SHAP calls.
type cliPlanner struct {
	rng   *rand.Rand
	n     uint64
	queue []cliCall
}

func newCLIPlanner(runSeed int64) *cliPlanner {
	return &cliPlanner{rng: rand.New(rand.NewSource(par.SplitSeed(runSeed, 0)))}
}

func (p *cliPlanner) next() cliCall {
	if len(p.queue) == 0 {
		for _, i := range p.rng.Perm(len(families)) {
			p.queue = append(p.queue, cliCall{kind: "explain", family: families[i], seed: cliSeeds[p.rng.Intn(len(cliSeeds))]})
			for s := 0; s < cliShapPerRun; s++ {
				x := make([]float64, dataset.GPrimeDim)
				for j := range x {
					x[j] = p.rng.Float64()
				}
				p.queue = append(p.queue, cliCall{kind: "shap", x: x})
			}
		}
	}
	c := p.queue[0]
	p.queue = p.queue[1:]
	p.n++
	c.id = p.n
	return c
}

type cliRun struct {
	o    *options
	path string
	f    *forest.Forest
	blob []byte
}

func runCLI(ctx context.Context, o *options) (*outcome, error) {
	reps := o.setups
	if o.trace {
		reps = 1
	}
	var setups []float64
	r := &cliRun{o: o}
	for i := 0; i < reps; i++ {
		path, f, d, err := setupCLI(ctx, o)
		if err != nil {
			return nil, err
		}
		r.path, r.f = path, f
		setups = append(setups, d.Seconds())
	}
	blob, err := os.ReadFile(r.path)
	if err != nil {
		return nil, err
	}
	r.blob = blob

	pl := newCLIPlanner(o.seed)
	total := time.Duration(o.seconds * float64(time.Second))
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	warm := r.window(ctx, pl, warmup, nil)
	calls := r.window(ctx, pl, total, tr)
	if tr != nil {
		if err := r.perLayer(ctx, out, calls, tr); err != nil {
			return nil, err
		}
	}
	all := append(warm, calls...)
	fid, err := r.check(ctx, all)
	if err != nil {
		return nil, err
	}
	r.endToEnd(out, all[len(warm):], all, total, fid)
	out.e2e["setup_s"] = metric{median(setups), "s"}
	out.details["setup_s_samples"] = setups
	return out, nil
}

// window runs calls one at a time for d. With a tracer, every other gef
// process and the SHAP calls after it are traced, so traced and untraced
// calls interleave over the window.
func (r *cliRun) window(ctx context.Context, pl *cliPlanner, d time.Duration, trAll *tracer) []cliCall {
	var calls []cliCall
	var tr *tracer
	explains := 0
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		c := pl.next()
		if c.kind == "explain" {
			explains++
			tr = nil
			if explains%2 == 0 {
				tr = trAll
			}
		}
		c.traced = tr != nil
		c.at = time.Since(start)
		root := tr.open("request", 0, c.id)
		if c.kind == "explain" {
			r.exec(ctx, &c, tr, root.id())
		} else {
			t0 := time.Now()
			phi, base := gefapi.ShapValues(r.f, c.x)
			t1 := time.Now()
			tr.add("shap.facade", root.id(), c.id, t0, t1)
			c.latency = t1.Sub(t0)
			c.err = checkShap(r.f, c.x, phi, base)
		}
		c.root = root.id()
		root.end()
		calls = append(calls, c)
	}
	return calls
}

// exec runs one gef process, timed from exec to exit, and records its
// peak RSS.
func (r *cliRun) exec(ctx context.Context, c *cliCall, tr *tracer, parent uint64) {
	args := []string{"-forest", r.path, "-family", c.family, "-seed", fmt.Sprint(c.seed),
		"-interactions", fmt.Sprint(cliInteractions), "-no-charts"}
	if tr != nil {
		c.metrics = filepath.Join(r.o.work, fmt.Sprintf("gef-metrics-%d.json", c.id))
		args = append(args, "-metrics-out", c.metrics)
	}
	cmd := exec.CommandContext(ctx, filepath.Join(r.o.bin, "gef"), args...)
	cmd.Dir = r.o.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	t1 := time.Now()
	tr.add("cli.process", parent, c.id, t0, t1)
	c.latency = t1.Sub(t0)
	c.stdout = stdout.Bytes()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.rssKiB = ru.Maxrss
		}
	}
	if err != nil {
		c.err = fmt.Errorf("gef %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
}

// check compares every process's printed family and fidelity with a
// direct engine call for the same config. It returns the mean R² of the
// six-explanation check set.
func (r *cliRun) check(ctx context.Context, calls []cliCall) (float64, error) {
	eng := core.NewEngine()
	probe := probeSet()
	refs := map[string]*reference{}
	var r2s []float64
	for _, fam := range families {
		for _, s := range cliSeeds {
			ref, err := makeReference(ctx, eng, r.f, cliConfig(fam, s), probe, false)
			if err != nil {
				return 0, err
			}
			if r.o.corruptReference {
				ref.fidelityLine += " (corrupted)"
			}
			refs[fmt.Sprint(fam, s)] = ref
			r2s = append(r2s, ref.r2)
		}
	}
	for i := range calls {
		c := &calls[i]
		if c.err != nil || c.kind != "explain" {
			continue
		}
		ref := refs[fmt.Sprint(c.family, c.seed)]
		famLine := "GEF explanation — family " + c.family + ","
		switch out := string(c.stdout); {
		case !strings.Contains(out, famLine):
			c.err = fmt.Errorf("gef output lacks %q", famLine)
		case !containsLine(out, ref.fidelityLine):
			c.err = fmt.Errorf("gef printed %q, reference %q", findLine(out, "fidelity on held-out D*"), ref.fidelityLine)
		}
		c.stdout = nil
	}
	return mean(r2s), nil
}

func containsLine(out, line string) bool {
	for _, l := range strings.Split(out, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

func findLine(out, prefix string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

// endToEnd fills the end-to-end metrics from the measured calls; every
// checked call of the run counts towards attempted and failed.
func (r *cliRun) endToEnd(out *outcome, measured, all []cliCall, window time.Duration, fid float64) {
	for _, c := range all {
		out.attempted++
		if c.err != nil {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("%s %d: %v", c.kind, c.id, c.err))
		}
	}
	var explain, shapOps []op
	var peakKiB int64
	for _, c := range measured {
		switch {
		case c.err != nil:
		case c.kind == "explain":
			explain = append(explain, op{c.at, c.latency})
			peakKiB = max(peakKiB, c.rssKiB)
		default:
			shapOps = append(shapOps, op{c.at, c.latency})
		}
	}
	// One slice: a slice of a few seconds holds too few processes of
	// each family for its own percentiles.
	ex := summarize(explain, window, 1)
	sh := summarize(shapOps, window, 1)
	out.e2e["explain_per_s"] = metric{ex.rate, "1/s"}
	out.e2e["explain_p50_ms"] = metric{ex.p50, "ms"}
	out.e2e["explain_p90_ms"] = metric{ex.p90, "ms"}
	out.e2e["shap_p50_ms"] = metric{sh.p50, "ms"}
	out.e2e["shap_p90_ms"] = metric{sh.p90, "ms"}
	out.e2e["fidelity_r2"] = metric{fid, "r2"}
	out.e2e["peak_mem_mb"] = metric{float64(peakKiB) / 1024, "MiB"}
	out.details["samples"] = map[string]int{"explain": ex.n, "shap": sh.n}
}

// perLayer reads each traced process's own metrics snapshot and replays
// one process per family, plus four SHAP calls, layer by layer.
func (r *cliRun) perLayer(ctx context.Context, out *outcome, calls []cliCall, tr *tracer) error {
	var traced []cliCall
	for _, c := range calls {
		if c.traced {
			traced = append(traced, c)
		}
	}
	pl := out.perLayer
	var before, after obs.Snapshot
	after.Counters, after.Histograms = map[string]int64{}, map[string]obs.HistogramSnapshot{}
	explains := 0.0
	var engBefore, engAfter core.CacheStats
	engAfter.Stages = map[string]core.StageCacheStats{}
	for _, c := range traced {
		if c.kind != "explain" || c.err != nil {
			continue
		}
		snap, err := readMetrics(c.metrics)
		if err != nil {
			return err
		}
		if err := os.Remove(c.metrics); err != nil {
			return err
		}
		explains++
		for name, v := range snap.Counters {
			after.Counters[name] += v
		}
		h := after.Histograms["gam.pirls_iters"]
		h.Sum += snap.Histograms["gam.pirls_iters"].Sum
		after.Histograms["gam.pirls_iters"] = h
	}
	if explains == 0 {
		return errors.New("traced window completed no explain")
	}
	for _, st := range stageNames {
		s := core.StageCacheStats{
			Hits:   after.Counters[`engine.cache_hits{stage="`+st+`"}`],
			Misses: after.Counters[`engine.cache_misses{stage="`+st+`"}`],
		}
		engAfter.Stages[st] = s
		engAfter.Hits += s.Hits
		engAfter.Misses += s.Misses
	}
	engineStats(pl, engBefore, engAfter, explains)
	gamCounters(pl, before, after, explains)
	for _, name := range []string{"serve.overhead_ms", "serve.coalesce_hit_rate", "serve.shed", "serve.errors"} {
		pl[name] = 0 // the CLI path has no serve layer
	}
	pl["trace.overhead_pct"] = cliOverheadPct(calls)

	replayStart := time.Now()
	lay := layerValues{}
	rp := &replayer{tr: tr, lay: lay}
	rng := rand.New(rand.NewSource(par.SplitSeed(r.o.seed, 7)))
	for _, fam := range families {
		var cands []cliCall
		for _, c := range traced {
			if c.kind == "explain" && c.err == nil && c.family == fam {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			continue
		}
		c := cands[rng.Intn(len(cands))]
		root := tr.open("replay", c.root, c.id)
		sp := tr.open("forest.unmarshal", root.id(), c.id)
		f, err := forest.Unmarshal(r.blob)
		lay.add("forest.unmarshal_ms", ms(sp.end()))
		if err != nil {
			root.end()
			return err
		}
		// A fresh engine per replay, as every gef process starts with one.
		eng := core.NewEngine()
		ex, ran, err := rp.explain(ctx, eng, f, cliConfig(fam, c.seed), root.id(), c.id)
		if err == nil {
			lay.add("core.cache_bytes", float64(eng.CacheStats().Bytes))
			err = rp.chain(ctx, f, cliConfig(fam, c.seed), ex, ran, root.id(), c.id)
		}
		root.end()
		if err != nil {
			return fmt.Errorf("replaying %s: %w", fam, err)
		}
	}
	n := 0
	for _, c := range traced {
		if c.kind == "shap" && c.err == nil && n < 4 {
			root := tr.open("replay", c.root, c.id)
			err := rp.shapValues(r.f, c.x, root.id(), c.id)
			root.end()
			if err != nil {
				return err
			}
			n++
		}
	}
	out.details["replay_s"] = time.Since(replayStart).Seconds()
	layerMetrics(pl, lay)
	pl["forest.unmarshal_ms"] = lay.median("forest.unmarshal_ms")
	pl["core.cache_bytes"] = lay.median("core.cache_bytes")
	table := tr.selfTimes()
	out.table = table
	return tr.writeTrace(r.o.tracePath(), table)
}

func readMetrics(path string) (obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("reading gef metrics: %w", err)
	}
	var rep obs.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return obs.Snapshot{}, fmt.Errorf("parsing gef metrics %s: %w", path, err)
	}
	return rep.Metrics, nil
}

// cliOverheadPct compares the p50 of traced gef processes with that of
// untraced ones, family by family (families differ several-fold in
// cost), and averages the per-family differences.
func cliOverheadPct(calls []cliCall) float64 {
	var pcts []float64
	for _, fam := range families {
		var lat [2][]float64
		for _, c := range calls {
			if c.kind == "explain" && c.err == nil && c.family == fam {
				i := 0
				if c.traced {
					i = 1
				}
				lat[i] = append(lat[i], ms(c.latency))
			}
		}
		if len(lat[0]) > 0 && len(lat[1]) > 0 {
			base := quantile(lat[0], 0.5)
			pcts = append(pcts, 100*(quantile(lat[1], 0.5)-base)/base)
		}
	}
	return mean(pcts)
}
