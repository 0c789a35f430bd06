package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := nearestRank(asc, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{3}, 0.99); got != 3 {
		t.Errorf("nearestRank of one sample = %g, want 3", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("nearestRank of no samples is not NaN")
	}
}

func TestReportableNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{100, 0.90, true},
		{99, 0.90, false},
		{3, 0.50, true}, // the median is always reported
		{0, 0.50, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %g) = %t, want %t (beyond %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g; want 1, 4", q1, q3)
	}
}

// TestFailedRequestsCountAsInf sends a cycle of two good specs and one the
// server refuses: the refused one counts as failed, not wrong, and lands in
// the latency tail as +Inf, missing the p99 limit.
func TestFailedRequestsCountAsInf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var good []reqSpec
	for len(good) < 2 {
		if r := drawSpec(rng); r.machine == "vn" {
			good = append(good, r)
		}
	}
	bad := reqSpec{body: []byte(`{"machine":"nope","program":"x"}`), machine: "nope"}
	b := &serveBench{cold: true, limitMs: coldLimitMs, srv: newInproc(0), specs: append(good, bad), book: newBodyBook(), checked: map[int]bool{}}
	defer b.close()
	out, err := b.run(env{seconds: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.wrong) != 0 {
		t.Errorf("a refused request was reported as a wrong answer: %v", out.wrong)
	}
	if out.failed == 0 || out.failed*3 > out.attempted+3 {
		t.Errorf("%d of %d requests failed, want about a third", out.failed, out.attempted)
	}
	asc := sorted(out.opMs)
	if !math.IsInf(asc[len(asc)-1], 1) || math.IsInf(nearestRank(asc, 0.5), 1) {
		t.Errorf("failures did not land in the tail as +Inf: p50 %g, max %g", nearestRank(asc, 0.5), asc[len(asc)-1])
	}
	if len(out.notes) != 1 || !strings.Contains(out.notes[0], "MISSED") {
		t.Errorf("the p99 limit note does not report the failures: %v", out.notes)
	}
}

func TestServeMixIsDeterministic(t *testing.T) {
	draw := func(seed int64) ([]reqSpec, map[string]int) {
		rng := rand.New(rand.NewSource(seed))
		specs := make([]reqSpec, 4000)
		count := map[string]int{}
		for i := range specs {
			specs[i] = drawSpec(rng)
			count[specs[i].machine]++
			if specs[i].machine == "ttda" && !strings.Contains(specs[i].src, "def f(i)") {
				count["paper"]++
			}
		}
		return specs, count
	}
	a, count := draw(5)
	b, _ := draw(5)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].want != b[i].want {
			t.Fatalf("spec %d differs between two draws at one seed", i)
		}
	}
	vn := count["vn"] + count["cmmp"] + count["cmstar"] + count["ultra"] + count["hep"]
	for _, c := range []struct {
		name  string
		got   int
		share float64
	}{{"generated ttda", count["ttda"] - count["paper"], 0.50}, {"paper ttda", count["paper"], 0.10}, {"direct", count["direct"], 0.15}, {"vnasm", vn, 0.25}} {
		if got := float64(c.got) / 4000; math.Abs(got-c.share) > 0.03 {
			t.Errorf("%s share %.3f, want %.2f", c.name, got, c.share)
		}
	}
}

func TestServeColdSpecsAreDistinct(t *testing.T) {
	mk := func() *serveBench {
		b, err := setupServeCold(9)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.close)
		return b.(*serveBench)
	}
	a, b := mk(), mk()
	seen := map[string]bool{}
	for i, s := range a.specs {
		if seen[string(s.body)] {
			t.Fatalf("spec %d repeats an earlier one", i)
		}
		seen[string(s.body)] = true
		if !bytes.Equal(s.body, b.specs[i].body) {
			t.Fatalf("spec %d differs between two set-ups at one seed", i)
		}
	}
	// Sent in a cycle, a spec comes round again only after the cache has
	// evicted it, so every request misses.
	if len(seen) <= coldCacheEntries {
		t.Errorf("%d specs cycle through a cache of %d entries: repeats would hit", len(seen), coldCacheEntries)
	}
}

func TestServeHotStreamIsDeterministic(t *testing.T) {
	const n = 20000
	draw := func() (*serveBench, []int) {
		b, err := setupServeHot(11)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.close)
		sb := b.(*serveBench)
		stream := make([]int, n)
		for i := range stream {
			stream[i] = sb.nextSpec()
		}
		return sb, stream
	}
	a, streamA := draw()
	b, streamB := draw()
	if fmt.Sprint(streamA) != fmt.Sprint(streamB) || len(a.specs) != len(b.specs) {
		t.Fatal("two set-ups at one seed drew different request streams")
	}
	for i := range a.specs {
		if !bytes.Equal(a.specs[i].body, b.specs[i].body) {
			t.Fatalf("spec %d differs between two set-ups at one seed", i)
		}
	}
	rankOf := make([]int, hotPopulation)
	for r, i := range a.rankSpec {
		rankOf[i] = r
	}
	hits := make([]int, hotPopulation)
	novel := 0
	for _, i := range streamA {
		if i >= hotPopulation {
			novel++
			continue
		}
		hits[rankOf[i]]++
	}
	if hits[0] <= hits[hotPopulation-1] || hits[0] < n/20 {
		t.Errorf("rank 0 drew %d of %d requests, the last rank %d: not Zipf", hits[0], n, hits[hotPopulation-1])
	}
	if share := float64(novel) / n; math.Abs(share-hotNovel) > 0.003 {
		t.Errorf("novel share %.4f, want %.2f", share, hotNovel)
	}
}

// runCLI runs the command in-process and returns its exit code, its
// standard output, and the decoded result line.
func runCLI(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := cli(args, &stdout, &stderr)
	var res result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("%v: last line is not a result: %v\n%s\n%s", args, err, stdout.String(), stderr.String())
	}
	if code != 0 {
		t.Logf("%v stderr:\n%s", args, stderr.String())
	}
	return code, stdout.String(), res
}

// TestSmoke runs every workload for one second, untraced, and checks the
// result line carries every end-to-end metric. Without -short it also runs
// each traced and checks the per-layer metrics and the trace's coverage.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, out, res := runCLI(t, "-workload", w.name, "-seed", "1", "-seconds", "1")
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			for _, m := range e2eMetrics {
				mo, ok := res.Metrics[m.name]
				if !ok || mo.Unit != m.unit || !(mo.Value > 0) {
					t.Errorf("metric %s = %+v", m.name, mo)
				}
			}
			if len(res.Metrics) != len(e2eMetrics) {
				t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(e2eMetrics))
			}
			if testing.Short() {
				return
			}
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			code, out, res = runCLI(t, "-workload", w.name, "-seconds", "2", "-trace", "1", "-trace-out", traceOut)
			if code != 0 || !res.Correct {
				t.Fatalf("traced: exit %d\n%s", code, out)
			}
			if len(res.Metrics) != len(layerNames) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(layerNames))
			}
			if cov := res.Metrics["trace.coverage_frac"].Value; cov < 0.9 {
				t.Errorf("trace covers %.3f of the timed work, want ≥ 0.9", cov)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			raw, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file holds no events (%v)", err)
			}
		})
	}
}

// TestPlantedWrongAnswerFails is the harness-teeth check: one corrupted
// reference answer must make the command exit non-zero and report the run
// as incorrect.
func TestPlantedWrongAnswerFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runWorkload(options{workload: "kernel", seed: 1, seconds: 0.2, setupReps: 1, plantWrong: true}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("a wrong answer exited 0:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) || !strings.Contains(stderr.String(), "wrong output") {
		t.Errorf("the run did not report the wrong answer:\n%s\n%s", stdout.String(), stderr.String())
	}
}

// writeRuns saves n synthetic untraced runs of workload kernel whose
// p50_ms is base scaled by 1 ± 2% seeded noise, and whose other metrics
// stay flat.
func writeRuns(t *testing.T, seed int64, n int, base float64) string {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		noise := 1 + 0.04*(rng.Float64()-0.5)
		res := result{Correct: true, Attempted: 10, Metrics: map[string]metricOutput{}}
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricOutput{Value: 10 * (1 + 0.01*rng.Float64()), Unit: m.unit}
		}
		res.Metrics["p50_ms"] = metricOutput{Value: base * noise, Unit: "ms"}
		b, _ := json.Marshal(res)
		body := fmt.Sprintf("stamp: {\"workload\":\"kernel\",\"seed\":%d}\nmetric ...\n%s\n", i, b)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%02d.txt", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeBounds writes a benchmark definition giving every end-to-end metric
// the same bound.
func writeBounds(t *testing.T, bound float64) string {
	var metrics []map[string]any
	for _, m := range e2eMetrics {
		metrics = append(metrics, map[string]any{"name": m.name, "unit": m.unit, "better": "lower", "bound": bound})
	}
	b, _ := json.Marshal(map[string]any{"end_to_end": metrics})
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareCatchesPlantedSlowdown plants slowdowns and a speed-up in
// p50_ms: a slowdown is a regression exactly when it exceeds the bound.
func TestCompareCatchesPlantedSlowdown(t *testing.T) {
	var committed struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil || json.Unmarshal(raw, &committed) != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bound float64
	for _, m := range committed.EndToEnd {
		if m.Name == "p50_ms" {
			bound = m.Bound
		}
	}
	tenPct := writeBounds(t, 0.10)
	parent := writeRuns(t, 1, 10, 100)
	for i, c := range []struct {
		name, def string
		base      float64
		code      int
		verdict   string
	}{
		{"20% slower against a 10% bound", tenPct, 120, 1, "regression"},
		{"slower by the committed bound and 5% more", "../BENCHMARK.json", 100 * (1 + bound + 0.05), 1, "regression"},
		{"a clean rerun against a 10% bound", tenPct, 100, 0, "no change"},
		{"a clean rerun", "../BENCHMARK.json", 100, 0, "no change"},
		{"20% faster", "../BENCHMARK.json", 80, 0, "gain"},
	} {
		var out bytes.Buffer
		code := compareCmd(c.def, parent, writeRuns(t, int64(2+i), 10, c.base), &out, &out)
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " p50_ms ") {
				row = line
			}
		}
		if code != c.code || !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: exit %d, p50_ms row %q; want exit %d and %q\n%s", c.name, code, row, c.code, c.verdict, out.String())
		}
	}
}

// TestExperimentListMatchesAll keeps experimentFns in step with
// experiments.All and experiments.Ablations.
func TestExperimentListMatchesAll(t *testing.T) {
	opts := experiments.Options{Quick: true}
	var want, got []string
	for _, r := range append(experiments.All(opts), experiments.Ablations(opts)...) {
		want = append(want, r.ID)
	}
	for _, x := range experimentFns {
		got = append(got, x.id)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("experimentFns %v, experiments.All and Ablations %v", got, want)
	}
}

func TestJudgeNeedsTenPairs(t *testing.T) {
	v := judge([]float64{1, 1, 1}, []float64{2, 2, 2}, "lower", 0.1)
	if !strings.HasPrefix(v.call, "too few pairs") {
		t.Errorf("3 pairs judged %q", v.call)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the command in
// step: the same workloads and metrics, and setup_s with the largest bound.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, command %v", got, want)
	}
	got, want = nil, nil
	maxBound := 0.0
	for _, m := range doc.EndToEnd {
		got = append(got, m.Name+"/"+m.Unit)
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range e2eMetrics {
		want = append(want, m.name+"/"+m.unit)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json end_to_end %v, command %v", got, want)
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must carry the largest bound (%g)", maxBound)
	}
	got, want = nil, nil
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+"/"+m.Unit)
	}
	for _, n := range layerNames {
		want = append(want, n+"/"+layerUnit(n))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json per_layer differs from layerNames:\n%v\n%v", got, want)
	}
}
