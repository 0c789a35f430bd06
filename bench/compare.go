package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRun is one saved untraced run output: its stamp and result lines.
type savedRun struct {
	workload string
	metrics  map[string]float64
}

// loadRuns reads every regular file in dir as the standard output of one
// run, in name order. Traced runs are skipped: they carry per-layer
// numbers, not the end-to-end ones compared here.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, traced, err := parseRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !traced {
			out = append(out, r)
		}
	}
	return out, nil
}

func parseRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var st stamp
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if s, ok := strings.CutPrefix(line, "stamp: "); ok {
			if err := json.Unmarshal([]byte(s), &st); err != nil {
				return savedRun{}, false, fmt.Errorf("stamp: %w", err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, false, err
	}
	if st.Workload == "" {
		return savedRun{}, false, fmt.Errorf("no stamp line")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return savedRun{}, false, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return savedRun{}, false, fmt.Errorf("the run reported wrong output")
	}
	r := savedRun{workload: st.Workload, metrics: map[string]float64{}}
	for k, m := range res.Metrics {
		r.metrics[k] = m.Value
	}
	return r, st.Trace, nil
}

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	workload, metric string
	pairs, wins      int
	medA, medB       float64
	// worse is the change's median relative to the parent's, signed so
	// that positive means worse.
	worse float64
	// spread is the parent's interquartile range over its median.
	spread float64
	call   string
}

// judge compares a metric's runs on the parent (a) and the change (b),
// paired in order. A gain needs the change to win at least nine pairs in
// ten and the medians to differ by more than the parent's interquartile
// range. A median worse by more than the bound is a regression. When the
// parent's spread exceeds the bound the row is unresolved, unless every
// change run beats every parent run.
func judge(a, b []float64, better string, bound float64) verdict {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	v := verdict{pairs: n}
	if n < minPairs {
		v.call = fmt.Sprintf("too few pairs (%d < %d)", n, minPairs)
		return v
	}
	lower := better == "lower"
	beats := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	for i := range a {
		if beats(b[i], a[i]) {
			v.wins++
		}
	}
	v.medA, v.medB = median(a), median(b)
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	v.spread = iqr / math.Abs(v.medA)
	v.worse = (v.medB - v.medA) / math.Abs(v.medA)
	if !lower {
		v.worse = -v.worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !beats(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case v.wins*10 >= 9*n && math.Abs(v.medB-v.medA) > iqr && v.worse < 0:
		v.call = "gain"
	case allBetter:
		v.call = "better"
	case v.worse > bound:
		v.call = "regression"
	case v.spread > bound:
		v.call = "unresolved"
	default:
		v.call = "no change"
	}
	return v
}

// compareCmd prints one verdict per (workload, end-to-end metric) and exits
// 1 when any row is a regression.
func compareCmd(benchPath, dirA, dirB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", benchPath, err)
		return 2
	}
	runsA, err := loadRuns(dirA)
	if err == nil {
		var runsB []savedRun
		runsB, err = loadRuns(dirB)
		if err == nil {
			rows := compareRuns(def, runsA, runsB)
			return printVerdicts(stdout, rows)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// compareRuns judges every end-to-end metric on every workload present in
// both sets.
func compareRuns(def benchmarkFile, runsA, runsB []savedRun) []verdict {
	byWorkload := func(runs []savedRun) map[string][]savedRun {
		m := map[string][]savedRun{}
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	a, b := byWorkload(runsA), byWorkload(runsB)
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []verdict
	for _, w := range names {
		for _, m := range def.EndToEnd {
			values := func(runs []savedRun) []float64 {
				var xs []float64
				for _, r := range runs {
					if v, ok := r.metrics[m.Name]; ok {
						xs = append(xs, v)
					}
				}
				return xs
			}
			v := judge(values(a[w]), values(b[w]), m.Better, m.Bound)
			v.workload, v.metric = w, m.Name
			rows = append(rows, v)
		}
	}
	return rows
}

func printVerdicts(w io.Writer, rows []verdict) int {
	code := 0
	fmt.Fprintf(w, "%-11s %-12s %5s %5s %14s %14s %8s %8s  %s\n", "workload", "metric", "pairs", "wins", "parent", "change", "worse", "spread", "verdict")
	for _, v := range rows {
		fmt.Fprintf(w, "%-11s %-12s %5d %5d %14.6g %14.6g %7.1f%% %7.1f%%  %s\n",
			v.workload, v.metric, v.pairs, v.wins, v.medA, v.medB, 100*v.worse, 100*v.spread, v.call)
		if v.call == "regression" {
			code = 1
		}
	}
	return code
}
