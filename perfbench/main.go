// Command perfbench is tpspace's benchmark. It builds nothing itself:
// run.sh builds it together with cmd/spaceserver and cmd/tpbench from
// the same source tree, then runs
//
//	perfbench --workload pairs|jobs|busplan|all --seed N --seconds S --trace 0|1 [--record FILE]
//
// The serving workloads start the real spaceserver as a child process
// with deployment flags only and drive it over loopback TCP through
// the public client (wrapper.NewClient over transport.NewTCPConn).
// busplan runs tpbench for the paper's five outputs and diffs them
// against the committed goldens. Every workload checks its outputs
// and counts each failed, missing or wrong reply.
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 it is the per-layer ledger, taken by timing
// calls into each layer's public functions from this program. The
// lines before it are a human-readable report and one "record:" line
// with provenance and every metric's median, quartiles and range over
// the run's rounds; --record appends that record to a file, and
//
//	perfbench compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl
//
// compares two such files metric by metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (see BENCHMARK.json and ledger.json for what
// an "op" is on each workload).
var endToEnd = []metricDef{
	{"ops_per_sec", "ops/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"setup_s", "s"},
	{"server_cpu_us_per_op", "us"},
	{"server_peak_rss_mb", "MiB"},
}

// perLayer is the traced run's ledger, one metric per layer boundary.
var perLayer = []metricDef{
	{"wrapper.client_issue_ns", "ns"},
	{"wrapper.client_complete_ns", "ns"},
	{"loadgen.cpu_us_per_op", "us"},
	{"loadgen.late_p99_us", "us"},
	{"transport.send_ns", "ns"},
	{"transport.frames_per_write", "frames"},
	{"transport.bytes_per_op", "B"},
	{"transport.echo_rtt_us", "us"},
	{"server.rtt_us", "us"},
	{"wrapper.gateway_service_us", "us"},
	{"wrapper.gateway_self_us", "us"},
	{"xmlcodec.req_encode_ns", "ns"},
	{"xmlcodec.req_decode_ns", "ns"},
	{"xmlcodec.resp_encode_ns", "ns"},
	{"xmlcodec.resp_decode_ns", "ns"},
	{"space.write_ns", "ns"},
	{"space.take_ns", "ns"},
	{"space.read_ns", "ns"},
	{"space.take_parked_share", "ratio"},
	{"space.notify_delivered", "count"},
	{"space.write_leased_ns", "ns"},
	{"space.expired_per_sec", "1/s"},
	{"journal.append_ns", "ns"},
	{"journal.bytes_per_op", "B"},
	{"journal.flush_ms", "ms"},
	{"journal.replay_s", "s"},
	{"core.plan_s", "s"},
	{"core.table4_s", "s"},
	{"core.sweep_s", "s"},
	{"core.fig7_s", "s"},
	{"core.chaos_s", "s"},
	{"ledger.server_unexplained_us", "us"},
	{"ledger.unexplained_us", "us"},
	{"trace.overhead", "ratio"},
}

// report-only metrics: printed and recorded, not part of the driver's
// result line (error_rate is 0 on a healthy run, and estimate_s exists
// only on busplan).
var reportOnly = []metricDef{
	{"error_rate", "ratio"},
	{"estimate_s", "s"},
	{"latency_samples", "count"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range l {
			m[d.name] = d.unit
		}
	}
	return m
}()

// result is one workload run's outcome and measurements.
type result struct {
	attempted, failed int64
	problems          []string
	broken            bool
	series            map[string][]float64
	samples           int64
}

func newResult() *result {
	return &result{series: map[string][]float64{}}
}

func (r *result) add(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.series[name] = append(r.series[name], v)
}

func (r *result) correct() bool { return r.failed == 0 && !r.broken && len(r.problems) == 0 }

// env is what every workload gets: where things are, the seed, and
// the run length.
type env struct {
	root    string
	bin     string
	work    string
	seed    int64
	seconds float64
	traced  bool
}

func (e *env) spaceserver() string { return filepath.Join(e.bin, "spaceserver") }
func (e *env) tpbench() string     { return filepath.Join(e.bin, "tpbench") }

// Each run measures several rounds and reports their median; set-up
// is repeated and its median reported.
const (
	untracedRounds = 5
	tracedRounds   = 6 // alternating untraced and traced
	setupRepeats   = 5
	ledgerOps      = 40000
)

// rounds returns the round count and which rounds are traced.
func (e *env) rounds() (int, func(int) bool) {
	if e.traced {
		return tracedRounds, func(r int) bool { return r%2 == 1 }
	}
	return untracedRounds, nil
}

// measured selects the rounds whose figures are the end-to-end result:
// the untraced ones.
func measured(traceOn func(int) bool) func(int) bool {
	return func(r int) bool { return traceOn == nil || !traceOn(r) }
}

// timing splits the run into a warm-up and equal rounds.
func (e *env) timing(rounds int) (warm, round time.Duration) {
	total := time.Duration(e.seconds * float64(time.Second))
	warm = total / 10
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	return warm, (total - warm) / time.Duration(rounds)
}

var workloads = []struct {
	name string
	run  func(*env) (*result, error)
}{
	{"pairs", runPairs},
	{"jobs", runJobs},
	{"busplan", runBusplan},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "pairs, jobs, busplan or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	recordPath := fs.String("record", "", "append the run's record (JSON line) to this file")
	root := fs.String("root", ".", "source tree root")
	bin := fs.String("bin", "", "directory holding the built spaceserver and tpbench (default ROOT/.bench_build/bin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *bin == "" {
		*bin = filepath.Join(rootAbs, ".bench_build", "bin")
	}
	var names []string
	var runs []func(*env) (*result, error)
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			names = append(names, w.name)
			runs = append(runs, w.run)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	prov := gatherProvenance(rootAbs)
	final := map[string]any{}
	metrics := map[string]any{}
	correct, attempted, failed := true, int64(0), int64(0)
	scratch := filepath.Join(rootAbs, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for i, name := range names {
		work, err := os.MkdirTemp(scratch, "work-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		e := &env{root: rootAbs, bin: *bin, work: work, seed: *seed, seconds: *seconds, traced: *trace == 1}
		res, err := runs[i](e)
		os.RemoveAll(work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		rec := makeRecord(name, e, prov, res)
		printReport(rec)
		line, _ := json.Marshal(rec)
		fmt.Printf("record: %s\n", line)
		if *recordPath != "" {
			if err := appendLine(*recordPath, line); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
		defs := endToEnd
		if e.traced {
			defs = perLayer
		}
		for _, d := range defs {
			m, ok := rec.Metrics[d.name]
			if !ok && res.correct() {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", name, d.name)
				return 1
			}
			key := d.name
			if len(names) > 1 {
				key = name + "." + d.name
			}
			metrics[key] = map[string]any{"value": m.Value, "unit": d.unit}
		}
		correct = correct && res.correct()
		attempted += res.attempted
		failed += res.failed
	}
	if attempted < 1 {
		attempted = 1
	}
	final["correct"] = correct
	final["attempted"] = attempted
	final["failed"] = failed
	final["metrics"] = metrics
	line, _ := json.Marshal(final)
	fmt.Println(string(line))
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record is one run as the comparator reads it.
type record struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Traced     bool                 `json:"traced"`
	When       string               `json:"when"`
	Provenance provenance           `json:"provenance"`
	Correct    bool                 `json:"correct"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Problems   []string             `json:"problems,omitempty"`
	Metrics    map[string]recMetric `json:"metrics"`
}

type recMetric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"` // the median over the run's rounds
	summary
}

func makeRecord(name string, e *env, prov provenance, res *result) record {
	rec := record{Workload: name, Seed: e.seed, Seconds: e.seconds, Traced: e.traced,
		When: time.Now().UTC().Format(time.RFC3339), Provenance: prov, Correct: res.correct(),
		Attempted: res.attempted, Failed: res.failed, Problems: res.problems,
		Metrics: map[string]recMetric{}}
	att := res.attempted
	if att < 1 {
		att = 1
	}
	res.series["error_rate"] = []float64{float64(res.failed) / float64(att)}
	res.series["latency_samples"] = []float64{float64(res.samples)}
	for name, xs := range res.series {
		if len(xs) == 0 {
			continue
		}
		s := summarize(xs)
		rec.Metrics[name] = recMetric{Unit: units[name], Value: s.Median, summary: s}
	}
	return rec
}

func printReport(rec record) {
	mode := "end-to-end"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %gs) correct=%v attempted=%d failed=%d\n",
		rec.Workload, mode, rec.Seed, rec.Seconds, rec.Correct, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Printf("   problem: %s\n", p)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("   %-30s %14.6g %-7s [q1 %.6g q3 %.6g min %.6g max %.6g n=%d]\n",
			n, m.Value, m.Unit, m.Q1, m.Q3, m.Min, m.Max, m.N)
	}
	fmt.Printf("   provenance: %d CPUs, GOMAXPROCS loadgen %d server %d, %s, commit %s, tree %s\n",
		rec.Provenance.NumCPU, rec.Provenance.LoadgenGOMAXPROCS, rec.Provenance.ServerGOMAXPROCS,
		rec.Provenance.GoVersion, rec.Provenance.Commit, shortHash(rec.Provenance.SourceTree))
}

func shortHash(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return strings.TrimSpace(s)
}
