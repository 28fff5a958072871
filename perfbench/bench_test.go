package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	want := [3]float64{2.75, 5.5, 8.25}
	for i := range q {
		if math.Abs(q[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles = %v, want %v", q, want)
		}
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q = quartiles([]float64{1, 3})
	if q != [3]float64{0.5, 2, 3.5} {
		t.Fatalf("quartiles of two = %v", q)
	}
}

func TestHistQuantileWithinBucket(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000*1000
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %v, want within 1%% of %v", q, got, want)
		}
	}
	if !math.IsNaN(newHist().quantile(0.5)) {
		t.Error("empty histogram must not report a quantile")
	}
}

func TestCheckLoadGenRefusesMoreThanCPUs(t *testing.T) {
	n := runtime.NumCPU()
	if err := checkLoadGen(n+1, 1); err == nil {
		t.Error("more connections than CPUs accepted")
	}
	if err := checkLoadGen(1, n+1); err == nil {
		t.Error("more issuing goroutines than CPUs accepted")
	}
	if err := checkLoadGen(maxConns(), maxConns()); err != nil {
		t.Errorf("the workloads' own shape refused: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		lower  bool
		want   string
	}{
		{"faster throughput", scale(parent, 1.2), false, verdictImproved},
		{"lower latency", scale(parent, 0.8), true, verdictImproved},
		{"same", []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, false, verdictWithin},
		{"slower throughput", scale(parent, 0.7), false, verdictWorse},
		{"higher latency", scale(parent, 1.3), true, verdictWorse},
	}
	for _, c := range cases {
		got := compareRuns(parent, c.change, c.lower, 0.1)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (won %d/%d)", c.name, got.Verdict, c.want, got.Won, got.Pairs)
		}
	}
	noisy := []float64{60, 140, 80, 120, 70, 130, 90, 110, 100, 100}
	if got := compareRuns(noisy, scale(noisy, 1.05), false, 0.1); got.Verdict != verdictUnresolved {
		t.Errorf("noisy parent: verdict %q, want %q", got.Verdict, verdictUnresolved)
	}
	// Every change run beating every parent run resolves even a wide
	// spread.
	if got := compareRuns(noisy, scale(noisy, 3), false, 0.1); got.Verdict != verdictImproved {
		t.Errorf("separated sets: verdict %q, want %q", got.Verdict, verdictImproved)
	}
}

func TestCompareSetsReadsRecords(t *testing.T) {
	lines := `{"workload":"pairs","seed":1,"metrics":{"ops_per_sec":{"unit":"ops/s","value":100},"p50_us":{"unit":"us","value":10}}}
{"workload":"pairs","seed":2,"metrics":{"ops_per_sec":{"unit":"ops/s","value":102},"p50_us":{"unit":"us","value":11}}}
{"workload":"pairs","seed":3,"traced":true,"metrics":{"ops_per_sec":{"unit":"ops/s","value":1}}}
`
	recs, err := parseRecords(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d untraced records, want 2", len(recs))
	}
	var spec benchSpec
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{Name: "ops_per_sec", Unit: "ops/s", Better: "higher", Bound: 0.1})
	rows := compareSets(spec, recs, recs)
	if len(rows) != 1 || rows[0].Workload != "pairs" || rows[0].Verdict != verdictWithin || rows[0].Won != 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

// buildServer builds cmd/spaceserver for the run tests.
func buildServer(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "spaceserver"), "tpspace/cmd/spaceserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build spaceserver: %v\n%s", err, out)
	}
	return dir
}

// killChildServer kills this process's spaceserver children.
func killChildServer() int {
	killed := 0
	dirs, _ := os.ReadDir("/proc")
	for _, d := range dirs {
		pid, err := strconv.Atoi(d.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", d.Name(), "stat"))
		if err != nil {
			continue
		}
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 || !strings.Contains(s[:i], "(spaceserver") {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			if syscall.Kill(pid, syscall.SIGKILL) == nil {
				killed++
			}
		}
	}
	return killed
}

func testEnv(t *testing.T, bin string, seconds float64) *env {
	return &env{root: "..", bin: bin, work: t.TempDir(), seed: 7, seconds: seconds}
}

func TestLedgerReplaysCloseTheirBooks(t *testing.T) {
	// The board tape carries XML, a notify, leases and takes: the
	// gateway replay, with its worker pool, must answer every request
	// before it is closed, and every leased entry must expire.
	tp := boardTape(1, 2000)
	res := newResult()
	results, spaceNs := replaySpace(tp, res)
	replayLeased(tp, res)
	reqs, _ := replayCodec(tp, results, res)
	for i, n := range replayGateway(tp, reqs, spaceNs, res) {
		if n == 0 {
			t.Fatalf("request %d (%s) got no reply from the gateway replay", i+1, tp.ops[i].op)
		}
	}
	if len(res.problems) > 0 {
		t.Fatal(res.problems)
	}
	if v := res.series["space.expired_per_sec"]; len(v) != 1 || !(v[0] > 0) {
		t.Errorf("space.expired_per_sec = %v", v)
	}
}

func TestPairsRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("starts spaceserver")
	}
	res, err := runPairs(testEnv(t, buildServer(t), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("healthy run: attempted %d failed %d problems %v", res.attempted, res.failed, res.problems)
	}
	for _, d := range endToEnd {
		if len(res.series[d.name]) == 0 {
			t.Errorf("metric %s not measured", d.name)
		}
	}
}

// A server that dies mid-run must show up as failed requests, and the
// run must still end, promptly, without hanging or panicking.
func TestKilledServerRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("starts spaceserver")
	}
	e := testEnv(t, buildServer(t), 6)
	go func() {
		time.Sleep(2 * time.Second)
		if killChildServer() == 0 {
			t.Error("no spaceserver child to kill")
		}
	}()
	done := make(chan struct{})
	var res *result
	var err error
	start := time.Now()
	go func() {
		defer close(done)
		res, err = runPairs(e)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not end within 60s of a killed server")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.correct() {
		t.Fatalf("killed server went unnoticed: attempted %d failed %d problems %v", res.attempted, res.failed, res.problems)
	}
	t.Logf("ended %v after start; error rate %.3g (%d of %d); problems %v",
		time.Since(start).Round(time.Millisecond), float64(res.failed)/float64(res.attempted), res.failed, res.attempted, res.problems)
}
