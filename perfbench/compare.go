package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts, after the choosing-metrics rule: a gain needs the change
// to win at least nine pairs in ten and its median to differ from the
// parent's by more than the parent's own quartile spread; a metric
// whose spread is wider than its bound is unresolved unless every
// change run beats every parent run.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one workload x metric row.
type comparison struct {
	Workload, Metric string
	Parent, Change   summary
	Pairs, Won       int
	Verdict          string
}

// compareRuns judges one metric from the parent's and the change's
// per-run values, paired by index.
func compareRuns(parent, change []float64, lowerBetter bool, bound float64) comparison {
	c := comparison{Parent: summarize(parent), Change: summarize(change)}
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	c.Pairs = n
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			c.Won++
		}
	}
	pm, cm := c.Parent.Median, c.Change.Median
	iqr := c.Parent.Q3 - c.Parent.Q1
	allBetter := len(parent) > 0 && len(change) > 0
	for _, x := range change {
		for _, y := range parent {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	// worse is the change's median loss as a share of the parent's.
	worse := (cm - pm) / pm
	if !lowerBetter {
		worse = (pm - cm) / pm
	}
	switch {
	case n > 0 && float64(c.Won) >= 0.9*float64(n) && better(cm, pm) && abs(cm-pm) > iqr:
		c.Verdict = verdictImproved
	case pm != 0 && iqr/abs(pm) > bound && !allBetter:
		c.Verdict = verdictUnresolved
	case worse > bound:
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictWithin
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRecords(f)
}

func parseRecords(r io.Reader) ([]record, error) {
	var out []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		if !rec.Traced {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// compareSets builds every workload x end-to-end metric row.
func compareSets(spec benchSpec, parent, change []record) []comparison {
	values := func(recs []record, w, m string) []float64 {
		var xs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[m]; ok && r.Workload == w {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range parent {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	var rows []comparison
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			p, c := values(parent, w, m.Name), values(change, w, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			row := compareRuns(p, c, m.Better == "lower", m.Bound)
			row.Workload, row.Metric = w, m.Name
			rows = append(rows, row)
		}
	}
	return rows
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change []record
		change, err = readRecords(fs.Arg(1))
		if err == nil {
			printComparison(os.Stdout, compareSets(spec, parent, change))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-8s %-22s %-36s %-36s %-7s %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-22s %-36s %-36s %-7s %s\n", r.Workload, r.Metric,
			fmt.Sprintf("%.6g [%.6g, %.6g]", r.Parent.Median, r.Parent.Q1, r.Parent.Q3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", r.Change.Median, r.Change.Q1, r.Change.Q3),
			fmt.Sprintf("%d/%d", r.Won, r.Pairs), r.Verdict)
	}
}
