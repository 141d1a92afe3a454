package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/sampling"
	"gef/internal/serve"
)

// The serve workloads run gefd's server in this process and drive it
// over loopback HTTP. The forests are the two loadgen seed forests (g′,
// 600 rows, 20 trees, 15 leaves, seed 1) and the hot set is 2 forests ×
// {gam, rules, smoother} × 2 configs at |D*| = 20000.
const (
	seedForests  = 2
	seedRows     = 600
	seedTrees    = 20
	seedLeaves   = 15
	forestSeed   = 1
	serveSamples = 20000
	// serveClients is one closed-loop caller, which waits for each
	// answer before it sends the next request. An explain's parallel
	// stages still use every core, but the load leaves the cores some
	// headroom. On a shared 2-core host under the same intermittent
	// one-core load from outside, one caller's explain figures spread
	// about half as much from run to run as two callers' (one per core).
	serveClients = 1
	shapFraction = 0.10
	// serveCacheBytes is the server's artifact-cache budget. It holds the
	// hot set (about 4 MiB) several times over, and the cold workload
	// fills it and starts evicting within its untimed warm-up, so its
	// memory peak does not depend on how many requests a run completes.
	serveCacheBytes = 16 << 20
	hotSeed         = 7
	// checkSeedBase starts the cold check set's config seeds, below the
	// range uniqueSeed draws from.
	checkSeedBase = 11
	// domainSeed pins the sampling-domain seed, so unique config seeds
	// change D* but not the domains: stats, featsel and domains hit on
	// the cold workload too.
	domainSeed = 8
)

var families = []string{core.FamilyGAM, core.FamilyRules, core.FamilySmoother}

// hotKey is one member of the hot set.
type hotKey struct {
	forest int
	family string
	nu     int
}

func hotKeys() []hotKey {
	var ks []hotKey
	for i := 0; i < seedForests; i++ {
		for _, fam := range families {
			for _, nu := range []int{3, 2} {
				ks = append(ks, hotKey{forest: i, family: fam, nu: nu})
			}
		}
	}
	return ks
}

// explainConfig is the fully specified config of a hot key at a config
// seed: the server's normalization leaves it unchanged, so a direct
// engine call with the same value computes the same explanation.
func explainConfig(k hotKey, seed int64) core.Config {
	return core.Config{
		Family:        k.family,
		NumUnivariate: k.nu,
		NumSamples:    serveSamples,
		Sampling:      sampling.Config{Strategy: sampling.EquiSize, K: 256, Seed: domainSeed},
		Seed:          seed,
	}
}

// trainSeedForests trains the loadgen seed forests.
func trainSeedForests() ([]*forest.Forest, error) {
	out := make([]*forest.Forest, seedForests)
	for i := range out {
		ds := dataset.GPrime(seedRows, 0.05, par.SplitSeed(forestSeed, i))
		f, err := gbdt.Train(ds, gbdt.Params{NumTrees: seedTrees, NumLeaves: seedLeaves, Seed: par.SplitSeed(forestSeed, i)})
		if err != nil {
			return nil, fmt.Errorf("training seed forest %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// system is a running server with its registered forests.
type system struct {
	forests []*forest.Forest
	fps     []string
	srv     *serve.Server
	url     string
	hc      *http.Client
	served  chan error
	probe   [][]float64
}

// startSystem is the serve workloads' set-up: train the forests, start
// the server, register the forests over HTTP and warm the hot set.
func startSystem(ctx context.Context, o *options) (*system, time.Duration, error) {
	t0 := time.Now()
	fs, err := trainSeedForests()
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &system{
		forests: fs,
		srv:     serve.New(serve.Options{CacheBudget: serveCacheBytes, FlightDir: o.work}),
		url:     "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * serveClients,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
		probe:  probeSet(),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for i, f := range fs {
		blob, err := forest.Marshal(f)
		if err != nil {
			return s, 0, err
		}
		st, body, err := s.post(ctx, "/v1/forests", blob)
		if err != nil || st != http.StatusOK {
			return s, 0, fmt.Errorf("registering forest %d: status %d %s: %v", i, st, body, err)
		}
		var info struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return s, 0, fmt.Errorf("registering forest %d: %w", i, err)
		}
		s.fps = append(s.fps, info.Fingerprint)
	}
	for _, k := range hotKeys() {
		st, body, err := s.post(ctx, "/v1/explain", s.explainBody(k.forest, explainConfig(k, hotSeed)))
		if err != nil || st != http.StatusOK {
			return s, 0, fmt.Errorf("warming %+v: status %d %s: %v", k, st, body, err)
		}
	}
	return s, time.Since(t0), nil
}

// stop drains the server and waits for its serve loop to return.
func (s *system) stop() error {
	s.hc.CloseIdleConnections()
	err := s.srv.Drain()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

func (s *system) explainBody(fi int, cfg core.Config) []byte {
	b, err := json.Marshal(struct {
		Fingerprint string      `json:"fingerprint"`
		Config      core.Config `json:"config"`
	}{s.fps[fi], cfg})
	if err != nil {
		panic(err) // a core.Config always encodes
	}
	return b
}

// post sends one request and reads the whole response body.
func (s *system) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// planned is one request of a client's seeded sequence.
type planned struct {
	id     uint64
	kind   string // "explain" or "shap"
	forest int
	key    int // hot-set index (explains)
	cfg    core.Config
	x      []float64
	// check marks a cold explain of the check set, compared with a
	// direct engine call after the window.
	check bool
}

// planner generates one client's request sequence from the run seed.
type planner struct {
	rng     *rand.Rand
	cold    bool
	client  int
	n       uint64
	runSeed int64
	keys    []hotKey
	// checkAt picks the cold check set from client 0's sequence: the
	// checkAt[g]-th explain of each (forest, family) group g.
	checkAt map[[2]int]int
	seen    map[[2]int]int
}

func newPlanner(runSeed int64, client int, cold bool) *planner {
	p := &planner{rng: rand.New(rand.NewSource(par.SplitSeed(runSeed, client))), cold: cold,
		client: client, runSeed: runSeed, keys: hotKeys()}
	if cold && client == 0 {
		rng := rand.New(rand.NewSource(par.SplitSeed(runSeed, 99)))
		p.checkAt, p.seen = map[[2]int]int{}, map[[2]int]int{}
		for fi := 0; fi < seedForests; fi++ {
			for fam := range families {
				p.checkAt[[2]int{fi, fam}] = rng.Intn(4)
			}
		}
	}
	return p
}

func (p *planner) next() planned {
	p.n++
	id := uint64(p.client+1)<<32 | p.n
	if p.rng.Float64() < shapFraction {
		x := make([]float64, dataset.GPrimeDim)
		for j := range x {
			x[j] = p.rng.Float64()
		}
		return planned{id: id, kind: "shap", forest: p.rng.Intn(seedForests), key: -1, x: x}
	}
	k := p.rng.Intn(len(p.keys))
	q := planned{id: id, kind: "explain", forest: p.keys[k].forest, key: k, cfg: explainConfig(p.keys[k], hotSeed)}
	if p.cold {
		q.cfg.Seed = uniqueSeed(p.runSeed, id, 0)
		if p.checkAt != nil {
			g := [2]int{q.forest, familyIndex(q.cfg.Family)}
			if q.check = p.seen[g] == p.checkAt[g]; q.check {
				// The check set's configs are the same in every run, so
				// its fidelity does not depend on --seed; only where the
				// check set falls in the sequence does.
				q.key = k - k%2 // the hot key's nu = 3 sibling
				q.cfg = explainConfig(p.keys[q.key], checkSeedBase+int64(g[0]*len(families)+g[1]))
			}
			p.seen[g]++
		}
	}
	return q
}

// uniqueSeed derives a config seed no other request of the run uses.
func uniqueSeed(runSeed int64, id uint64, pass int) int64 {
	return int64(uint64(par.SplitSeed(runSeed+int64(pass)*0x5eed, int(id)))>>24) + 1000
}

// done is one completed request.
type done struct {
	planned
	at      time.Duration // start, since the window opened
	latency time.Duration
	// blob is the served explanation, kept only where a check after the
	// window needs it; hash is its SHA-256.
	blob   []byte
	hash   [32]byte
	err    error // transport error, non-2xx status or failed check
	root   uint64
	traced bool
}

// serveSlices is how many slices the serve workloads' measured window
// is cut into for its explain figures (see summarize).
const serveSlices = 10

// warmup is the untimed stretch of load before the measured window: the
// cold workload's cache reaches its evicting steady state in it. Its
// requests are checked like the measured ones.
const warmup = time.Second

// traceSlice is the length of the alternating untraced and traced
// stretches of a traced run's window; alternating cancels drift over
// the window out of the tracing-overhead comparison.
const traceSlice = time.Second

// do sends r, timing it from sending the request to reading the last
// response byte, then checks the answer: SHAP for local accuracy, an
// explanation by digest (and, on the cold workload, by reloading it
// with core.Unmarshal). Comparisons with references that need the whole
// explanation happen after the window.
func (s *system) do(ctx context.Context, r *done, tr *tracer, cold bool) {
	r.traced = tr != nil
	root := tr.open("request", 0, r.id)
	defer func() { r.root = root.id(); root.end() }()
	var path string
	var body []byte
	if r.kind == "shap" {
		path = "/v1/shap"
		body, _ = json.Marshal(struct {
			Fingerprint string    `json:"fingerprint"`
			X           []float64 `json:"x"`
		}{s.fps[r.forest], r.x})
	} else {
		path = "/v1/explain"
		body = s.explainBody(r.forest, r.cfg)
	}
	start := time.Now()
	st, resp, err := s.post(ctx, path, body)
	end := time.Now()
	tr.add("serve.http", root.id(), r.id, start, end)
	r.latency = end.Sub(start)
	switch {
	case err != nil:
		r.err = err
		return
	case st != http.StatusOK:
		r.err = fmt.Errorf("%s: status %d: %s", path, st, bytes.TrimSpace(resp))
		return
	}
	if r.kind == "explain" {
		sp := tr.open("client.check_explain", root.id(), r.id)
		defer sp.end()
		var env struct {
			Explanation json.RawMessage `json:"explanation"`
		}
		if err := json.Unmarshal(resp, &env); err != nil {
			r.err = fmt.Errorf("decoding explain response: %w", err)
			return
		}
		r.blob, r.hash = env.Explanation, sha256.Sum256(env.Explanation)
		if cold {
			if _, err := reloadPredict(ctx, r.blob, s.probe); err != nil {
				r.err = fmt.Errorf("reloading the explanation: %w", err)
			}
		}
		return
	}
	sp := tr.open("client.check_shap", root.id(), r.id)
	defer sp.end()
	var sr struct {
		Phi  []float64 `json:"phi"`
		Base float64   `json:"base"`
	}
	if err := json.Unmarshal(resp, &sr); err != nil {
		r.err = fmt.Errorf("decoding shap response: %w", err)
		return
	}
	r.err = checkShap(s.forests[r.forest], r.x, sr.Phi, sr.Base)
}

// window is one timed stretch of closed-loop load.
type window struct {
	reqs                     []done
	d                        time.Duration // nominal length
	start, end               time.Time
	heapPeaks                []uint64 // per slice
	statsBefore, statsAfter  serve.Stats
	metricsBefore, metricsAt obs.Snapshot
}

// runWindow drives the planners' sequences for d with one goroutine per
// client. With a tracer, requests started in odd traceSlice stretches
// are traced and the others are not.
func (s *system) runWindow(ctx context.Context, planners []*planner, d time.Duration, tr *tracer) *window {
	runtime.GC()
	w := &window{d: d, statsBefore: s.srv.Stats(), metricsBefore: obs.Metrics().Snapshot()}
	w.start = time.Now()
	w.heapPeaks = make([]uint64, serveSlices)
	stopHeap := sampleHeap(w.heapPeaks, w.start, d)
	deadline := w.start.Add(d)
	per := make([][]done, len(planners))
	var wg sync.WaitGroup
	for i, p := range planners {
		wg.Add(1)
		go func(i int, p *planner) {
			defer wg.Done()
			firstOf := map[[32]byte]bool{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := done{planned: p.next(), at: time.Since(w.start)}
				s.do(ctx, &r, sliceTracer(tr, w.start), p.cold)
				// Keep a blob only for the check after the window: each
				// distinct warm answer once, and the cold check set.
				if keep := r.check || !p.cold && !firstOf[r.hash]; keep && r.blob != nil {
					firstOf[r.hash] = true
					r.blob = append([]byte(nil), r.blob...)
				} else {
					r.blob = nil
				}
				per[i] = append(per[i], r)
			}
		}(i, p)
	}
	wg.Wait()
	w.end = time.Now()
	stopHeap()
	w.statsAfter, w.metricsAt = s.srv.Stats(), obs.Metrics().Snapshot()
	for _, rs := range per {
		w.reqs = append(w.reqs, rs...)
	}
	return w
}

// sliceTracer returns tr during odd traceSlice stretches since start and
// nil (no tracing) otherwise.
func sliceTracer(tr *tracer, start time.Time) *tracer {
	if int(time.Since(start)/traceSlice)%2 == 0 {
		return nil
	}
	return tr
}

// sampleHeap samples the Go heap's live-object bytes every 2 ms from
// start until the returned stop function is called (which waits for the
// sampler to exit), keeping the peak of each of the window's slices of
// length d/serveSlices.
func sampleHeap(peaks []uint64, start time.Time, d time.Duration) (stop func()) {
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			i := min(int(int64(time.Since(start))*int64(len(peaks))/int64(d)), len(peaks)-1)
			peaks[i] = max(peaks[i], sample[0].Value.Uint64())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// serveRun is one run of serve-warm or serve-cold.
type serveRun struct {
	o    *options
	cold bool
	sys  *system
	refs map[int]*reference // hot-set references by key index
	// mirror is the reference engine of the checks and the replay after
	// the window, its cache state kept like the server's. It is made after
	// the window, so the window's heap holds no engine but the server's.
	mirror *core.Engine
}

func runServe(ctx context.Context, o *options, cold bool) (*outcome, error) {
	setups, err := childSetups(ctx, o)
	if err != nil {
		return nil, err
	}
	sys, setup, err := startSystem(ctx, o)
	if err != nil {
		if sys != nil {
			_ = sys.stop() // the set-up error is the one to report
		}
		return nil, err
	}
	setups = append(setups, setup.Seconds())
	r := &serveRun{o: o, cold: cold, sys: sys, refs: map[int]*reference{}}
	out, err := r.run(ctx)
	if serr := sys.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the server: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = metric{median(setups), "s"}
	out.details["setup_s_samples"] = setups
	return out, nil
}

func (r *serveRun) run(ctx context.Context) (*outcome, error) {
	if err := r.hotReferences(ctx); err != nil {
		return nil, err
	}
	planners := make([]*planner, serveClients)
	for c := range planners {
		planners[c] = newPlanner(r.o.seed, c, r.cold)
	}
	total := time.Duration(r.o.seconds * float64(time.Second))
	out := newOutcome()
	var tr *tracer
	if r.o.trace {
		tr = newTracer()
	}
	warm := r.sys.runWindow(ctx, planners, warmup, nil)
	w := r.sys.runWindow(ctx, planners, total, tr)
	r.mirror = core.NewEngineBudget(serveCacheBytes)
	if tr != nil {
		if err := r.perLayer(ctx, out, w, tr); err != nil {
			return nil, err
		}
	}
	reqs := append(warm.reqs, w.reqs...)
	fid, err := r.check(ctx, reqs)
	if err != nil {
		return nil, err
	}
	r.endToEnd(out, w, reqs, fid)
	return out, nil
}

// hotReferences computes the hot set's references with an engine of
// their own, which is garbage once it returns: the window's heap holds
// no engine but the server's.
func (r *serveRun) hotReferences(ctx context.Context) error {
	eng := core.NewEngineBudget(serveCacheBytes)
	for i, k := range hotKeys() {
		ref, err := makeReference(ctx, eng, r.sys.forests[k.forest], explainConfig(k, hotSeed), r.sys.probe, r.o.corruptReference)
		if err != nil {
			return err
		}
		r.refs[i] = ref
	}
	return nil
}

// check finishes the per-request checks after the window. Warm answers
// must carry the digest of their hot key's reference, and each distinct
// answer is reloaded and compared once; the cold check set is compared
// with direct engine calls made now. It returns the check set's mean R².
func (r *serveRun) check(ctx context.Context, reqs []done) (float64, error) {
	var r2s []float64
	verdicts := map[[32]byte]error{}
	for i := range reqs {
		q := &reqs[i]
		switch {
		case q.err != nil || q.kind != "explain":
		case r.cold && q.check:
			ref, err := makeReference(ctx, r.mirror, r.sys.forests[q.forest], q.cfg, r.sys.probe, r.o.corruptReference)
			if err != nil {
				return 0, err
			}
			q.err = verifyBlob(ctx, q.blob, ref, r.sys.probe)
			r2s = append(r2s, ref.r2)
		case r.cold:
		case q.hash != r.refs[q.key].hash:
			q.err = fmt.Errorf("explanation bytes differ from the reference")
		case q.blob != nil:
			verdicts[q.hash] = verifyBlob(ctx, q.blob, r.refs[q.key], r.sys.probe)
		}
		q.blob = nil
	}
	for i := range reqs {
		if q := &reqs[i]; q.err == nil && q.kind == "explain" && !r.cold {
			q.err = verdicts[q.hash]
		}
	}
	if !r.cold {
		for _, ref := range r.refs {
			r2s = append(r2s, ref.r2)
		}
	}
	return mean(r2s), nil
}

// endToEnd fills the end-to-end metrics from the measured window; every
// checked request of the run counts towards attempted and failed.
func (r *serveRun) endToEnd(out *outcome, w *window, reqs []done, fid float64) {
	for _, q := range reqs {
		out.attempted++
		if q.err != nil {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("%s %d: %v", q.kind, q.id, q.err))
		}
	}
	var explain, shapOps []op
	for _, q := range w.reqs {
		if q.err != nil {
			continue
		}
		if q.kind == "explain" {
			explain = append(explain, op{q.at, q.latency})
		} else {
			shapOps = append(shapOps, op{q.at, q.latency})
		}
	}
	ex := summarize(explain, w.d, serveSlices)
	// A window holds too few SHAP requests to summarize per slice.
	sh := summarize(shapOps, w.d, 1)
	out.e2e["explain_per_s"] = metric{ex.rate, "1/s"}
	out.e2e["explain_p50_ms"] = metric{ex.p50, "ms"}
	out.e2e["explain_p90_ms"] = metric{ex.p90, "ms"}
	out.e2e["shap_p50_ms"] = metric{sh.p50, "ms"}
	out.e2e["shap_p90_ms"] = metric{sh.p90, "ms"}
	out.e2e["fidelity_r2"] = metric{fid, "r2"}
	var peaks []float64
	for _, p := range w.heapPeaks {
		peaks = append(peaks, float64(p)/(1<<20))
	}
	// The window's single highest sample depends on which explains happen
	// to coincide with a collection, and moves from run to run by nearly
	// the metric's bound; the median of the slices' peaks does not.
	out.e2e["peak_mem_mb"] = metric{median(peaks), "MiB"}
	out.details["heap_peaks_mib"] = peaks
	out.details["heap_window_peak_mib"] = quantile(peaks, 1)
	out.details["samples"] = map[string]int{"explain": ex.n, "shap": sh.n}
	out.details["explain_slices"] = ex.slices
}

// perLayer derives the per-layer metrics from the window's counters and
// a replay of sampled traced requests.
func (r *serveRun) perLayer(ctx context.Context, out *outcome, w *window, tr *tracer) error {
	explains := 0.0
	var traced []done
	for _, q := range w.reqs {
		if q.kind == "explain" && q.err == nil {
			explains++
		}
		if q.traced {
			traced = append(traced, q)
		}
	}
	if explains == 0 {
		return errors.New("the window completed no explain")
	}
	a, b := w.statsAfter, w.statsBefore
	pl := out.perLayer
	hits, leads := float64(a.CoalesceHits-b.CoalesceHits), float64(a.CoalesceLeads-b.CoalesceLeads)
	pl["serve.coalesce_hit_rate"] = ratio(hits, hits+leads)
	pl["serve.shed"] = float64(a.Shed - b.Shed)
	pl["serve.errors"] = float64(a.Errors - b.Errors)
	engineStats(pl, b.Engine, a.Engine, explains)
	pl["core.cache_bytes"] = float64(a.Engine.Bytes)
	gamCounters(pl, w.metricsBefore, w.metricsAt, explains)
	// The window's only tracing cost is span bookkeeping; the replay
	// runs after the window and shows as replay_s in the details.
	pl["trace.overhead_pct"] = overheadPct(w.reqs)

	// Replay two explains per family and four SHAP requests from the
	// traced window: once to bring lazy state (the gam basis cache, the
	// mirror's caches) to the server's, then again on the clock.
	sel := r.replaySelection(traced)
	replayStart := time.Now()
	lay := layerValues{}
	basis := gam.NewBasisCache()
	for pass := 0; pass < 2; pass++ {
		rp := &replayer{lay: layerValues{}, basis: basis}
		if pass == 1 {
			rp.tr, rp.lay = tr, lay
		}
		for _, q := range sel {
			if err := r.replay(ctx, rp, q, pass); err != nil {
				return fmt.Errorf("replaying request %d: %w", q.id, err)
			}
		}
	}
	out.details["replay_s"] = time.Since(replayStart).Seconds()
	layerMetrics(pl, lay)
	pl["forest.unmarshal_ms"] = 0 // forests are registered once; no request decodes one
	table := tr.selfTimes()
	out.table = table
	return tr.writeTrace(r.o.tracePath(), table)
}

func (r *serveRun) replaySelection(reqs []done) []done {
	rng := rand.New(rand.NewSource(par.SplitSeed(r.o.seed, 7)))
	keys := hotKeys()
	groups := map[string][]done{}
	for _, q := range reqs {
		if q.err != nil {
			continue
		}
		g := q.kind
		if q.kind == "explain" {
			g = keys[q.key].family
		}
		groups[g] = append(groups[g], q)
	}
	var sel []done
	for _, g := range append(append([]string(nil), families...), "shap") {
		n := 2
		if g == "shap" {
			n = 4
		}
		qs := groups[g]
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		sel = append(sel, qs[:min(n, len(qs))]...)
	}
	return sel
}

// replay re-sends q over HTTP with no other load, makes the same call
// directly on the mirror engine, and replays its stage chain. On the
// cold workload each pass uses a fresh config seed, so both the server
// and the mirror miss as the original request did.
func (r *serveRun) replay(ctx context.Context, rp *replayer, q done, pass int) error {
	root := rp.tr.open("replay", q.root, q.id)
	defer root.end()
	f := r.sys.forests[q.forest]
	if q.kind == "shap" {
		return rp.shapValues(f, q.x, root.id(), q.id)
	}
	cfg := q.cfg
	if r.cold {
		cfg.Seed = uniqueSeed(r.o.seed, q.id, pass+1)
	}
	// Each of the two timed calls starts from a collected heap, so
	// neither pays for the other's garbage.
	runtime.GC()
	t0 := time.Now()
	st, body, err := r.sys.post(ctx, "/v1/explain", r.sys.explainBody(q.forest, cfg))
	t1 := time.Now()
	if err != nil || st != http.StatusOK {
		return fmt.Errorf("solo request: status %d %s: %v", st, body, err)
	}
	rp.tr.add("serve.http_solo", root.id(), q.id, t0, t1)
	runtime.GC()
	ex, ran, err := rp.explain(ctx, r.mirror, f, cfg, root.id(), q.id)
	if err != nil {
		return err
	}
	direct := rp.lay["core.explain_ms"]
	rp.lay.add("serve.overhead_ms", ms(t1.Sub(t0))-direct[len(direct)-1])
	return rp.chain(ctx, f, cfg, ex, ran, root.id(), q.id)
}

// engineStats turns engine CacheStats deltas into per-explain stage
// counts and the overall hit rate.
func engineStats(pl map[string]float64, before, after core.CacheStats, explains float64) {
	pl["core.engine_hit_rate"] = ratio(float64(after.Hits-before.Hits), float64(after.Hits-before.Hits+after.Misses-before.Misses))
	for _, st := range stageNames {
		pl["core.stage_hits."+st] = float64(after.Stages[st].Hits-before.Stages[st].Hits) / explains
		pl["core.stage_misses."+st] = float64(after.Stages[st].Misses-before.Stages[st].Misses) / explains
	}
}

var stageNames = []string{"stats", "featsel", "domains", "sample", "interactions", "fit"}

// gamCounters reads the gam module's own counters from an obs snapshot
// delta, per explain.
func gamCounters(pl map[string]float64, before, after obs.Snapshot, explains float64) {
	pl["gam.fits"] = float64(after.Counters["gam.fits"]-before.Counters["gam.fits"]) / explains
	pl["gam.gcv_evals"] = float64(after.Counters["gam.gcv_evals"]-before.Counters["gam.gcv_evals"]) / explains
	pl["gam.pirls_iters"] = (after.Histograms["gam.pirls_iters"].Sum - before.Histograms["gam.pirls_iters"].Sum) / explains
}

// layerMetrics copies the replay's per-layer medians into the metrics.
func layerMetrics(pl map[string]float64, lay layerValues) {
	for _, name := range []string{
		"serve.overhead_ms", "core.explain_ms", "core.alloc_mb_per_explain", "core.marshal_ms", "core.marshal_bytes",
		"featsel.top_features_ms", "featsel.rank_interactions_ms",
		"sampling.build_domains_ms", "sampling.generate_ms", "sampling.rows_per_s",
		"forest.flat_ns_per_row", "gam.fit_ms", "rules.fit_ms", "smoother.fit_ms", "smoother.predict_ns_per_row",
		"shap.values_us", "shap.node_visits",
	} {
		pl[name] = lay.median(name)
	}
}

// overheadPct compares the explain p50 of traced requests with that of
// the untraced ones in the same window.
func overheadPct(reqs []done) float64 {
	var lat [2][]float64
	for _, q := range reqs {
		if q.kind == "explain" && q.err == nil {
			i := 0
			if q.traced {
				i = 1
			}
			lat[i] = append(lat[i], ms(q.latency))
		}
	}
	base := quantile(lat[0], 0.5)
	return 100 * (quantile(lat[1], 0.5) - base) / base
}

func familyIndex(name string) int {
	for i, f := range families {
		if f == name {
			return i
		}
	}
	return -1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
