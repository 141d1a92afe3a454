package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce  sync.Once
	binDir     string
	compileErr error
)

// testOptions returns options for a short run, building the gef and
// forestgen binaries the CLI workload needs once per test binary.
func testOptions(t *testing.T, workload string, seed int64, seconds float64, trace bool) *options {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	buildOnce.Do(func() {
		binDir, compileErr = os.MkdirTemp("", "gefbench-bin")
		if compileErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/gef", "./cmd/forestgen")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			compileErr = err
			t.Logf("%s", out)
		}
	})
	if compileErr != nil {
		t.Fatalf("building binaries: %v", compileErr)
	}
	return &options{workload: workload, seed: seed, seconds: seconds, trace: trace,
		root: root, bin: binDir, work: t.TempDir(), setups: 1}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func unitsOf(m map[string]metric) map[string]string {
	u := map[string]string{}
	for name, v := range m {
		u[name] = v.Unit
	}
	return u
}

// A short run of each workload, untraced and traced, passes its checks
// and reports exactly the metrics BENCHMARK.json names, with their
// units.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			// A traced run needs a traced slice, which starts after the
			// first traceSlice of the window.
			o := testOptions(t, w, 1, 2.5, trace)
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			if got := unitsOf(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, trace, got, want)
			}
		}
	}
}

// A corrupted reference makes the correctness check fail on every
// workload.
func TestCorruptedReferenceFailsCheck(t *testing.T) {
	for _, w := range workloads {
		o := testOptions(t, w, 1, 1, false)
		o.corruptReference = true
		res, err := run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference passed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// A different seed changes the request sequence but not the metric set.
func TestSeedChangesSequenceNotMetricSet(t *testing.T) {
	for _, cold := range []bool{false, true} {
		a, b := newPlanner(1, 0, cold), newPlanner(2, 0, cold)
		same := true
		for i := 0; i < 50; i++ {
			qa, qb := a.next(), b.next()
			if qa.kind != qb.kind || qa.key != qb.key || qa.cfg.Seed != qb.cfg.Seed || !reflect.DeepEqual(qa.x, qb.x) {
				same = false
			}
		}
		if same {
			t.Errorf("cold=%v: seeds 1 and 2 gave the same request sequence", cold)
		}
	}
	ca, cb := newCLIPlanner(1), newCLIPlanner(2)
	same := true
	for i := 0; i < 30; i++ {
		x, y := ca.next(), cb.next()
		if x.family != y.family || x.seed != y.seed || !reflect.DeepEqual(x.x, y.x) {
			same = false
		}
	}
	if same {
		t.Error("cli: seeds 1 and 2 gave the same call sequence")
	}

	var sets [][]string
	for _, seed := range []int64{1, 2} {
		o := testOptions(t, serveWarm, seed, 1, false)
		res, err := run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		sets = append(sets, names)
	}
	if !reflect.DeepEqual(sets[0], sets[1]) {
		t.Errorf("metric sets differ across seeds: %v vs %v", sets[0], sets[1])
	}
}

// The tracer's self time subtracts the union of child intervals.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, 1, at(0), at(100))
	tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(60)) // overlaps a: union is 10..60
	got := map[string]float64{}
	for _, r := range tr.selfTimes() {
		got[r.Name] = r.SelfMs
	}
	if got["root"] != 50 || got["a"] != 30 || got["b"] != 30 {
		t.Errorf("self times %v, want root 50, a 30, b 30", got)
	}
}
