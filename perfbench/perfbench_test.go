package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// pathmarkBin is the daemon binary the served-workload tests start,
// built once by TestMain.
var pathmarkBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	pathmarkBin = filepath.Join(dir, "pathmark")
	build := exec.Command("go", "build", "-o", pathmarkBin, "pathmark/cmd/pathmark")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("build pathmark: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// The same seed must give byte-identical inputs (program disassemblies,
// key files, watermarks, trace bit-strings), and another seed other ones.
func TestInputsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"recognize": func(seed int64) string {
			items, err := recognizeInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			return itemsFingerprint(items)
		},
		"embed-fleet": func(seed int64) string {
			st, err := embedInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			return embedFingerprint(seed, st)
		},
		"serve-grade": func(seed int64) string {
			in, err := makeGradeInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			return in.fingerprint()
		},
		"serve-stream": func(seed int64) string {
			in, err := makeStreamInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			return in.fingerprint()
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// Every serve-grade job of a run must be a distinct spec: a repeat would
// be answered from the daemon's content-addressed table, doing no work.
func TestGradeJobsDistinct(t *testing.T) {
	in, err := makeGradeInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < gradeMaxOps; i++ {
		k, idx, order := in.plan(i)
		spec := fmt.Sprint(k, idx[order[0]], order[0], idx[order[1]], order[1])
		if j, dup := seen[spec]; dup {
			t.Fatalf("jobs %d and %d are the same spec", j, i)
		}
		seen[spec] = i
	}
}

// Stream sessions get unique keys by varying the key's secret input;
// that is only sound if the hosts never read their input.
func TestHostsIgnoreInput(t *testing.T) {
	in, err := makeStreamInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(in.pool) - 1} {
		it, key := in.session(i)
		bits, _, err := traceBits(it.prog, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := bits.String(); got != strings.Join(it.chunks, "") {
			t.Errorf("%s copy: trace under session key %v differs from the uploaded bits", it.kind, key.Input)
		}
	}
}

// A short run of every workload, untraced and traced, must pass the
// oracle and every cross-check with no failed op.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 5, seconds: 0.2, trace: trace,
				pathmark: pathmarkBin, workdir: t.TempDir(), minOps: 8, setups: 2,
			}
			o, err := workloadRuns[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if o.failed != 0 || len(o.problems) != 0 || o.attempted < 2 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d problems=%v", name, trace, o.attempted, o.failed, o.problems)
			}
			if trace {
				m := perLayer(o)
				if m["traced.ops"].Value < 1 {
					t.Errorf("%s: traced run recorded no ops", name)
				}
				continue
			}
			for metric, v := range endToEnd(o) {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, metric, v.Value)
				}
			}
		}
	}
}

// BENCHMARK.json must list harness workloads and exactly the metrics the
// harness prints, with the same units.
func TestBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(def.Workloads))
	}
	for _, w := range def.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a harness workload", w.Name)
		}
	}
	e2e := endToEnd(&outcome{timed: time.Second})
	if len(def.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, harness prints %d", len(def.EndToEnd), len(e2e))
	}
	for _, m := range def.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): harness prints %+v", m.Name, m.Unit, got)
		}
	}
	pl := perLayerMetrics()
	if len(def.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness prints %d", len(def.PerLayer), len(pl))
	}
	for i, m := range def.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), harness %s (%s)", i, m.Name, m.Unit, pl[i].name, pl[i].unit)
		}
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4}, 1, 2, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A span's self time is its duration minus the union of its children's
// intervals; attributed children are placed inside the parent.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{counts: map[string]float64{}, filled: map[int]time.Duration{}}
	tr.spans = []span{
		{name: "op", start: 0, end: 10 * ms, parent: -1},
		{name: "a", start: 1 * ms, end: 3 * ms, parent: 0},
		{name: "b", start: 2 * ms, end: 5 * ms, parent: 0},
		{name: "c", start: 7 * ms, end: 8 * ms, parent: 0},
	}
	tr.attribute("x", 2, 1*ms)
	self := tr.selfTimes()
	if self["op"] != 5*ms {
		t.Errorf("op self = %v, want 5ms", self["op"])
	}
	if self["b"] != 2*ms || self["x"] != 1*ms {
		t.Errorf("b self = %v (want 2ms), attributed x = %v (want 1ms)", self["b"], self["x"])
	}
}
