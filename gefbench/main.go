// Command gefbench is GEF's repository benchmark. It measures the two
// end-to-end paths a user sees — a gefd request and a gef CLI explain —
// on three workloads, checks every answer against a direct engine call,
// and, in a separate traced run, times each layer from outside by
// calling that layer's public functions. It adds no instrumentation to
// the program.
//
// Run it from the root of a checkout through run.sh, which builds the
// binaries from source first:
//
//	bash gefbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it
// records the environment, sample counts and check failures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload names.
const (
	serveWarm  = "serve-warm"
	serveCold  = "serve-cold"
	cliExplain = "cli-explain"
)

var workloads = []string{serveWarm, serveCold, cliExplain}

// endToEndUnits and perLayerUnits are the metric sets a run reports,
// with their units; BENCHMARK.json lists the same names. A run also
// measures shap_p90_ms and error_rate, printed but not gated: the SHAP
// tail moves by more than any allowed bound from run to run on a
// 2-core host, and error_rate is 0 on a healthy run (success_rate
// carries it).
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"explain_per_s":  "1/s",
	"explain_p50_ms": "ms",
	"explain_p90_ms": "ms",
	"shap_p50_ms":    "ms",
	"success_rate":   "ratio",
	"fidelity_r2":    "r2",
	"peak_mem_mb":    "MiB",
}

var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"serve.overhead_ms":            "ms",
		"serve.coalesce_hit_rate":      "ratio",
		"serve.shed":                   "count",
		"serve.errors":                 "count",
		"core.engine_hit_rate":         "ratio",
		"core.explain_ms":              "ms",
		"core.cache_bytes":             "bytes",
		"core.alloc_mb_per_explain":    "MiB",
		"core.marshal_ms":              "ms",
		"core.marshal_bytes":           "bytes",
		"featsel.top_features_ms":      "ms",
		"featsel.rank_interactions_ms": "ms",
		"sampling.build_domains_ms":    "ms",
		"sampling.generate_ms":         "ms",
		"sampling.rows_per_s":          "1/s",
		"forest.unmarshal_ms":          "ms",
		"forest.flat_ns_per_row":       "ns",
		"gam.fit_ms":                   "ms",
		"gam.fits":                     "per_explain",
		"gam.gcv_evals":                "per_explain",
		"gam.pirls_iters":              "per_explain",
		"rules.fit_ms":                 "ms",
		"smoother.fit_ms":              "ms",
		"smoother.predict_ns_per_row":  "ns",
		"shap.values_us":               "us",
		"shap.node_visits":             "count",
		"trace.overhead_pct":           "%",
	}
	for _, st := range stageNames {
		u["core.stage_hits."+st] = "per_explain"
		u["core.stage_misses."+st] = "per_explain"
	}
	return u
}()

// defaultSetups is how many times a run sets up.
const defaultSetups = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	bin      string // directory holding the gef and forestgen binaries
	work     string // directory for run files, under the root
	// setups is how many times a run sets up; setup_s is their median.
	// Runs use defaultSetups; the self-tests lower it.
	setups int
	// corruptReference flips the reference answers, so every check must
	// fail (used by the self-tests).
	corruptReference bool
}

func (o *options) tracePath() string {
	return filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one workload run measured.
type outcome struct {
	e2e               map[string]metric
	perLayer          map[string]float64
	attempted, failed int64
	failures          []string
	details           map[string]any
	table             []layerRow
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, perLayer: map[string]float64{}, details: map[string]any{}}
}

func main() {
	o := &options{setups: defaultSetups}
	var traceFlag int
	var setupOnly bool
	flag.StringVar(&o.workload, "workload", serveWarm, "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (request sequence)")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the gef and forestgen binaries")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up a serve workload once, print the set-up time and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := o.resolve(); err != nil {
		fmt.Fprintf(os.Stderr, "gefbench: %v\n", err)
		os.Exit(2)
	}
	// Every run must end well within three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if setupOnly {
		sys, d, err := startSystem(ctx, o)
		if sys != nil {
			if serr := sys.stop(); err == nil {
				err = serr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gefbench: set-up: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("setup_s %s\n", strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return
	}
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gefbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gefbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (o *options) resolve() error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return err
	}
	if !filepath.IsAbs(o.bin) {
		o.bin = filepath.Join(o.root, o.bin)
	}
	o.work = filepath.Join(o.root, ".bench_build", "work")
	return os.MkdirAll(o.work, 0o755)
}

// run executes one workload run and prints the details line; it returns
// the contract line.
func run(ctx context.Context, o *options) (*result, error) {
	var out *outcome
	var err error
	switch o.workload {
	case cliExplain:
		out, err = runCLI(ctx, o)
	default:
		out, err = runServe(ctx, o, o.workload == serveCold)
	}
	if err != nil {
		return nil, err
	}
	if out.attempted > 0 {
		out.e2e["success_rate"] = metric{float64(out.attempted-out.failed) / float64(out.attempted), "ratio"}
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if o.trace {
		for name, unit := range perLayerUnits {
			v, ok := out.perLayer[name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", name)
			}
			res.Metrics[name] = metric{v, unit}
		}
	} else {
		for name := range endToEndUnits {
			m, ok := out.e2e[name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			res.Metrics[name] = m
		}
	}
	printSummary(o, out, res)
	return res, nil
}

// printSummary writes a readable table to standard error and the
// details line (environment, sample counts, failures) to standard
// output.
func printSummary(o *options, out *outcome, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "gefbench %s seed %d trace %v: attempted %d, failed %d\n", o.workload, o.seed, o.trace, res.Attempted, res.Failed)
	ungated := map[string]metric{}
	if !o.trace {
		ungated["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
		ungated["shap_p90_ms"] = out.e2e["shap_p90_ms"]
		for _, n := range []string{"error_rate", "shap_p90_ms"} {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s (not gated)\n", n, ungated[n].Value, ungated[n].Unit)
		}
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if out.table != nil {
		printTable(os.Stderr, out.table)
	}
	for i, f := range out.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... %d more failures\n", len(out.failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  failure: %s\n", f)
	}
	details := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"trace":    o.trace,
		"env": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os":         runtime.GOOS,
			"arch":       runtime.GOARCH,
		},
		"ungated": ungated,
	}
	for k, v := range out.details {
		details[k] = v
	}
	if n := len(out.failures); n > 0 {
		details["failures"] = out.failures[:min(n, 20)]
	}
	if o.trace {
		details["trace_file"] = o.tracePath()
		details["layers"] = out.table
	}
	if b, err := json.Marshal(details); err == nil {
		fmt.Println(string(b))
	}
}

// childSetups measures o.setups−1 additional serve set-ups, each in a
// fresh process so no process-wide memo (compiled forests, the obs
// registry) carries over; the run's own set-up is the last sample.
func childSetups(ctx context.Context, o *options) ([]float64, error) {
	if o.trace {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 1; i < o.setups; i++ {
		cmd := exec.CommandContext(ctx, self, "-setup-only", "-workload", o.workload,
			"-seed", fmt.Sprint(o.seed), "-root", o.root, "-bin", o.bin)
		cmd.Dir = o.root
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		v, ok := strings.CutPrefix(strings.TrimSpace(string(stdout)), "setup_s ")
		f, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("set-up process printed %q", stdout)
		}
		out = append(out, f)
	}
	return out, nil
}
