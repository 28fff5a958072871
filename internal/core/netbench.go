// Network serving-plane load generator: the -netbench mode of
// cmd/tpbench. Closed-loop clients drive the full Figure 4 stack —
// wrapper.Client → framed transport → gateway → RMI → Space — over
// real loopback TCP and over the in-process pipe, and report
// throughput, latency percentiles, and allocations per operation.
// The baseline row runs the in-binary replica of the pre-pipelining
// TCPConn (two writes per message under the connection mutex, fresh
// buffer per receive) over XML, so the batched/pooled serving plane is
// measured against the exact code it replaced.

package core

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// NetBenchConfig shapes one netbench run.
type NetBenchConfig struct {
	Clients   int    // closed-loop client goroutines (default 64)
	Conns     int    // connections the clients share (default 4)
	Ops       int    // total timed requests across all clients (default 20000)
	Codec     string // "xml" (default) or "binary"
	Transport string // "tcp" (loopback TCP, default) or "pipe" (in-proc)
	Shards    int    // space shards (default 4)
	BatchOps  int    // client-side multi-op coalescing, binary codec only (<=1 off)
	Baseline  bool   // legacy unbatched TCP framing over XML
}

// DefaultNetBenchConfig is the acceptance-scenario shape: 64 closed-loop
// clients multiplexed over 4 loopback TCP connections (16 in-flight
// requests per connection — enough concurrency for the writer to form
// real writev batches, as a multiplexing client library would).
func DefaultNetBenchConfig() NetBenchConfig {
	return NetBenchConfig{
		Clients: 64, Conns: 4, Ops: 20_000,
		Codec: "xml", Transport: "tcp", Shards: 4,
	}
}

func (c *NetBenchConfig) fill() {
	def := DefaultNetBenchConfig()
	if c.Clients <= 0 {
		c.Clients = def.Clients
	}
	if c.Conns <= 0 {
		c.Conns = def.Conns
	}
	if c.Conns > c.Clients {
		c.Conns = c.Clients
	}
	if c.Ops <= 0 {
		c.Ops = def.Ops
	}
	if c.Codec == "" {
		c.Codec = def.Codec
	}
	if c.Transport == "" {
		c.Transport = def.Transport
	}
	if c.Shards <= 0 {
		c.Shards = def.Shards
	}
	if c.Baseline {
		c.Codec = "xml"
		c.BatchOps = 0
	}
}

// Name labels the run in reports: transport/plane/codec, with a
// suffix for multi-op coalescing (/bK).
func (c NetBenchConfig) Name() string {
	plane := "batched"
	if c.Baseline {
		plane = "baseline"
	}
	name := c.Transport + "/" + plane + "/" + c.Codec
	if c.BatchOps > 1 {
		name += fmt.Sprintf("/b%d", c.BatchOps)
	}
	return name
}

// NetBenchResult is one measured netbench run.
type NetBenchResult struct {
	Config      NetBenchConfig
	Ops         int
	Elapsed     time.Duration
	OpsPerSec   float64
	P50         time.Duration
	P99         time.Duration
	AllocsPerOp float64
}

// netBenchTimeout bounds each blocking take; every take follows its
// own write, so hitting it means the stack lost a request.
const netBenchTimeout = 30 * time.Second

// RunNetBench executes one closed-loop run and returns its measures.
func RunNetBench(cfg NetBenchConfig) NetBenchResult {
	cfg.fill()
	sp := space.New(space.NewRealRuntime(), space.WithShards(cfg.Shards))

	var cliOpts []wrapper.ClientOption
	if cfg.Codec == "binary" {
		cliOpts = append(cliOpts, wrapper.WithBinaryCodec())
		if cfg.BatchOps > 1 {
			cliOpts = append(cliOpts, wrapper.WithBatchOps(cfg.BatchOps))
		}
	}

	clients := make([]*wrapper.Client, cfg.Conns)
	var ln net.Listener
	switch cfg.Transport {
	case "pipe":
		for i := range clients {
			a, b := transport.NewLoopback()
			wrapper.NewServerStack(b, sp)
			clients[i] = wrapper.NewClient(a, cliOpts...)
		}
	default: // tcp
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("netbench: listen: %v", err))
		}
		go func() {
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				var sc transport.Conn
				if cfg.Baseline {
					sc = transport.NewUnbatchedTCPConn(nc)
				} else {
					sc = transport.NewTCPConn(nc)
				}
				wrapper.NewServerStack(sc, sp)
			}
		}()
		for i := range clients {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				panic(fmt.Sprintf("netbench: dial: %v", err))
			}
			var cc transport.Conn
			if cfg.Baseline {
				cc = transport.NewUnbatchedTCPConn(nc)
			} else {
				cc = transport.NewTCPConn(nc)
			}
			clients[i] = wrapper.NewClient(cc, cliOpts...)
		}
	}

	// Each client goroutine alternates write and take of its own
	// concrete tuple — every request is one full round trip, every
	// take is a hit, and the space returns to (near) its initial size.
	opsPer := cfg.Ops / cfg.Clients
	if opsPer < 2 {
		opsPer = 2
	}
	totalOps := opsPer * cfg.Clients
	lat := make([]time.Duration, totalOps)
	timeout := sim.DurationOf(netBenchTimeout)

	// Warm the stack before the measured window opens: fills the
	// buffer/request pools and absorbs scheduler noise from a previous
	// run's teardown — suite rows otherwise inherit the prior row's
	// dying goroutines as startup jitter.
	for _, cli := range clients {
		w := tuple.New("netwarm", tuple.Int("c", 0))
		for i := 0; i < 8; i++ {
			if err := cli.WriteWait(w, space.NoLease); err != nil {
				panic("netbench: warmup write: " + err.Error())
			}
			if _, ok := cli.TakeWait(w, timeout); !ok {
				panic("netbench: warmup take missed its write")
			}
		}
	}

	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := clients[c%cfg.Conns]
			base := c * opsPer
			// The loop itself is frugal — one reused request tuple, one
			// reused result tuple (TakeWaitInto recycles its storage),
			// and the blocking conveniences, whose pooled completion
			// cells park and wake without allocating — so allocs/op
			// measures the serving stack, not the load generator.
			tup := tuple.New("net",
				tuple.Int("c", int64(c)), tuple.Int("seq", 0))
			var got tuple.Tuple
			for j := 0; j < opsPer; j++ {
				tup.Fields[1].Int = int64(j / 2)
				t0 := time.Now()
				if j%2 == 0 {
					if err := cli.WriteWait(tup, space.NoLease); err != nil {
						panic("netbench: write: " + err.Error())
					}
				} else if !cli.TakeWaitInto(&got, tup, timeout) {
					panic("netbench: take missed its own write")
				}
				lat[base+j] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	for _, cli := range clients {
		_ = cli.Close()
	}
	if ln != nil {
		_ = ln.Close()
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res := NetBenchResult{
		Config:      cfg,
		Ops:         totalOps,
		Elapsed:     elapsed,
		OpsPerSec:   float64(totalOps) / elapsed.Seconds(),
		P50:         lat[totalOps/2],
		P99:         lat[totalOps*99/100],
		AllocsPerOp: float64(memAfter.Mallocs-memBefore.Mallocs) / float64(totalOps),
	}
	return res
}

// NetBenchSuite is the -netbench report: the baseline serving plane
// and the pipelined one, across transports and codecs, on one
// workload shape.
type NetBenchSuite struct {
	Results []NetBenchResult
}

// RunNetBenchSuite measures the serving-plane before/after matrix.
// codec restricts the batched rows to one codec ("" = both); the
// baseline row is always legacy XML — that is the plane being
// replaced.
func RunNetBenchSuite(cfg NetBenchConfig, codec string) NetBenchSuite {
	cfg.fill()
	var runs []NetBenchConfig
	add := func(transportName string, baseline bool, c string, batchOps int) {
		r := cfg
		r.Transport = transportName
		r.Baseline = baseline
		r.Codec = c
		r.BatchOps = batchOps
		runs = append(runs, r)
	}
	add("tcp", true, "xml", 0)
	if codec == "" || codec == "xml" {
		add("tcp", false, "xml", 0)
		add("pipe", false, "xml", 0)
	}
	if codec == "" || codec == "binary" {
		add("tcp", false, "binary", 0)
		add("pipe", false, "binary", 0)
		// Multi-op coalescing rows (cfg.BatchOps, or 8 by default).
		bk := 8
		if cfg.BatchOps > 1 {
			bk = cfg.BatchOps
		}
		add("tcp", false, "binary", bk)
		add("pipe", false, "binary", bk)
	}
	var s NetBenchSuite
	for _, r := range runs {
		s.Results = append(s.Results, RunNetBench(r))
	}
	return s
}

// baselineOps returns the baseline row's throughput (0 if absent).
func (s NetBenchSuite) baselineOps() float64 {
	for _, r := range s.Results {
		if r.Config.Baseline && r.Config.Transport == "tcp" {
			return r.OpsPerSec
		}
	}
	return 0
}

// Format renders the suite as the -netbench report.
func (s NetBenchSuite) Format() string {
	var b strings.Builder
	if len(s.Results) == 0 {
		return "netbench: no results\n"
	}
	c := s.Results[0].Config
	fmt.Fprintf(&b, "Network serving-plane workload: %d clients over %d conns, %d ops/run, %d shard(s)\n",
		c.Clients, c.Conns, s.Results[0].Ops, c.Shards)
	fmt.Fprintf(&b, "%-22s %12s %10s %10s %12s %9s\n",
		"plane", "ops/sec", "p50", "p99", "allocs/op", "speedup")
	base := s.baselineOps()
	for _, r := range s.Results {
		speedup := "-"
		if base > 0 && !r.Config.Baseline && r.Config.Transport == "tcp" {
			speedup = fmt.Sprintf("%.2fx", r.OpsPerSec/base)
		}
		fmt.Fprintf(&b, "%-22s %12.0f %10s %10s %12.1f %9s\n",
			r.Config.Name(), r.OpsPerSec,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.AllocsPerOp, speedup)
	}
	return b.String()
}

// netBenchRecord is the BENCH_net.json schema.
type netBenchRecord struct {
	Name              string  `json:"name"`
	Clients           int     `json:"clients"`
	Conns             int     `json:"conns"`
	Ops               int     `json:"ops"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	OpsPerSec         float64 `json:"ops_per_sec"`
	P50Ns             int64   `json:"p50_ns"`
	P99Ns             int64   `json:"p99_ns"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline"`
}

// JSON renders the suite as the BENCH_net.json records.
func (s NetBenchSuite) JSON() (string, error) {
	base := s.baselineOps()
	recs := make([]netBenchRecord, 0, len(s.Results))
	for _, r := range s.Results {
		rec := netBenchRecord{
			Name:        "netbench/" + r.Config.Name(),
			Clients:     r.Config.Clients,
			Conns:       r.Config.Conns,
			Ops:         r.Ops,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			OpsPerSec:   r.OpsPerSec,
			P50Ns:       r.P50.Nanoseconds(),
			P99Ns:       r.P99.Nanoseconds(),
			AllocsPerOp: r.AllocsPerOp,
		}
		if base > 0 && !r.Config.Baseline && r.Config.Transport == "tcp" {
			rec.SpeedupVsBaseline = r.OpsPerSec / base
		}
		recs = append(recs, rec)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
