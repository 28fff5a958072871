package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// busplan: tpbench produces the paper's five outputs and each is
// diffed byte for byte against the committed goldens. It is the only
// workload for the estimator layers (core, sim, tpwire, netsim). An op
// here is one tpbench invocation producing one output.
var busplanOutputs = []struct {
	metric string
	args   []string
	golden string
}{
	{"core.plan_s", []string{"-plan"}, "plan.txt"},
	{"core.table4_s", []string{"-table", "4"}, "table4.txt"},
	{"core.sweep_s", []string{"-sweep"}, "sweep.csv"},
	{"core.fig7_s", []string{"-fig", "7"}, "fig7.txt"},
	{"core.chaos_s", []string{"-chaos"}, "chaos.txt"},
}

const busplanMinPasses = 5

func loadGoldens(root string) ([][]byte, error) {
	var out [][]byte
	for _, o := range busplanOutputs {
		b, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden_cli", o.golden))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// passStats is one pass over the five outputs.
type passStats struct {
	wall   time.Duration
	cpu    time.Duration
	rssMiB float64
	each   []time.Duration
}

// busplanPass runs every output once, checking each against its
// golden.
func busplanPass(e *env, goldens [][]byte, res *result) (passStats, error) {
	var ps passStats
	t0 := time.Now()
	for i, o := range busplanOutputs {
		r, err := runTool(e.tpbench(), o.args...)
		res.attempted++
		if err != nil {
			return ps, err
		}
		if !bytes.Equal(r.out, goldens[i]) {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("busplan: tpbench %v differs from golden %s", o.args, o.golden))
		}
		ps.cpu += r.cpu
		if r.rssMiB > ps.rssMiB {
			ps.rssMiB = r.rssMiB
		}
		ps.each = append(ps.each, r.wall)
	}
	ps.wall = time.Since(t0)
	return ps, nil
}

// estimatorLayers times one busplan pass for the estimator's per-layer
// metrics on a serving workload's traced run.
func estimatorLayers(e *env, res *result) {
	goldens, err := loadGoldens(e.root)
	if err != nil {
		res.problems = append(res.problems, "busplan goldens: "+err.Error())
		return
	}
	ps, err := busplanPass(e, goldens, res)
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return
	}
	for i, o := range busplanOutputs {
		res.add(o.metric, ps.each[i].Seconds())
	}
}

func runBusplan(e *env) (*result, error) {
	goldens, err := loadGoldens(e.root)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if e.traced {
		// The serving layers are measured on the board exchange, the
		// Fig. 7 traffic the estimator models, over a short traced run.
		be := *e
		be.seconds = 4
		if res, err = boardLive(&be); err != nil {
			return nil, err
		}
	}
	// Set-up: from launching tpbench to its first correct output, on
	// the smallest of the five.
	fig := 3
	for i := 0; i < setupRepeats && !e.traced; i++ {
		t0 := time.Now()
		r, err := runTool(e.tpbench(), busplanOutputs[fig].args...)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if !bytes.Equal(r.out, goldens[fig]) {
			res.failed++
			res.problems = append(res.problems, "busplan: set-up output differs from golden")
		}
		res.add("setup_s", time.Since(t0).Seconds())
	}
	if _, err := busplanPass(e, goldens, res); err != nil { // warm-up
		return nil, err
	}
	var lat []float64
	each := make([][]float64, len(busplanOutputs))
	end := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for n := 0; n < busplanMinPasses || time.Now().Before(end); n++ {
		ps, err := busplanPass(e, goldens, res)
		if err != nil {
			return nil, err
		}
		ops := float64(len(busplanOutputs))
		if !e.traced {
			res.add("ops_per_sec", ops/ps.wall.Seconds())
			res.add("server_cpu_us_per_op", float64(ps.cpu)/1e3/ops)
			res.add("server_peak_rss_mb", ps.rssMiB)
		}
		res.add("estimate_s", ps.wall.Seconds())
		for i, d := range ps.each {
			each[i] = append(each[i], d.Seconds())
			lat = append(lat, float64(d)/1e3)
		}
	}
	if !e.traced {
		// About 130 samples in 20 s, so these are exact percentiles, and
		// the p99 is in effect the slowest -chaos invocation of the run
		// (the record's latency_samples gives the count).
		res.add("p50_us", percentile(lat, 0.50))
		res.add("p99_us", percentile(lat, 0.99))
		res.samples += int64(len(lat))
	}
	for i, o := range busplanOutputs {
		res.add(o.metric, median(each[i]))
	}
	return res, nil
}
