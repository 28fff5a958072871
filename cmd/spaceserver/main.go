// Command spaceserver runs the tuplespace as a TCP daemon — the Java
// SpaceServer prototype of Section 4.1, with the Java/socket wrapper
// of Figure 4 in front of every connection.
//
//	spaceserver -addr :7010 [-shards N] [-journal FILE]
//
// Clients frame each request with a 4-byte big-endian length prefix
// (see internal/transport.TCPConn). A connection may mix the XML
// entry protocol and the binary codec frame by frame; every reply
// comes back in its request's codec. Each request is served to
// completion on its connection's reader goroutine. cmd/spacecli and
// the examples show the client side.
//
// -selftest runs the replicated-cluster chaos cell in-process (a
// 3-node simulated cluster with a forced primary crash, audited for
// lost writes and double takes) and exits — a deployment preflight
// for the cluster plane.
//
// -mutexprofile and -blockprofile enable the runtime's contention and
// blocking profilers and dump the profile on SIGINT/SIGTERM — the
// live-daemon counterpart of tpbench's flags of the same names, for
// hunting completion-plane lock contention under real client load.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"tpspace/internal/core"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/wrapper"
)

// profileOnExit enables one runtime profiler now and dumps its
// profile to path when the daemon is interrupted.
func profileOnExit(name, path string, enable func()) {
	enable()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		if f, err := os.Create(path); err != nil {
			log.Printf("spaceserver: %s profile: %v", name, err)
		} else {
			if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
				log.Printf("spaceserver: %s profile: %v", name, err)
			}
			f.Close()
			log.Printf("spaceserver: wrote %s profile to %s", name, path)
		}
		os.Exit(0)
	}()
}

func main() {
	addr := flag.String("addr", ":7010", "listen address")
	journalPath := flag.String("journal", "", "journal file for the persistent message store (restored on start)")
	shards := flag.Int("shards", 1, "independently locked space shards (concrete-template traffic scales across them; semantics are identical at any count)")
	selftest := flag.Bool("selftest", false, "run the replicated-cluster chaos self-test (3 simulated nodes, forced primary crash) and exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile here on SIGINT/SIGTERM (see also tpbench -mutexprofile / -blockprofile for offline runs)")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile here on SIGINT/SIGTERM (park/channel waits on the serving plane)")
	flag.Parse()

	if *mutexprofile != "" {
		profileOnExit("mutex", *mutexprofile, func() { runtime.SetMutexProfileFraction(1) })
	}
	if *blockprofile != "" {
		profileOnExit("block", *blockprofile, func() { runtime.SetBlockProfileRate(1) })
	}

	if *selftest {
		r := core.RunClusterChaos(core.DefaultClusterChaosConfig())
		if !r.OK() {
			log.Fatalf("spaceserver: cluster self-test violations: %v", r.Violations)
		}
		log.Printf("spaceserver: cluster self-test clean: %d writes acked, %d takes delivered, %d kill(s), crash detected in %v, recovered in %v",
			r.WritesAcked, r.Delivered, r.Kills, r.DetectDelay, r.RecoverDelay)
		return
	}

	sp := space.New(space.NewRealRuntime(), space.WithShards(*shards))
	if *journalPath != "" {
		n, err := sp.ReplayFile(*journalPath)
		if err != nil {
			log.Fatalf("spaceserver: replay %s: %v", *journalPath, err)
		}
		j, err := space.OpenJournal(*journalPath)
		if err != nil {
			log.Fatalf("spaceserver: journal %s: %v", *journalPath, err)
		}
		sp.SetJournal(j)
		log.Printf("spaceserver: restored %d entries from %s", n, *journalPath)
		go func() {
			for range time.Tick(time.Second) {
				if err := j.Flush(); err != nil {
					log.Printf("spaceserver: journal flush: %v", err)
					return
				}
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("spaceserver: %v", err)
	}
	log.Printf("spaceserver: tuplespace listening on %s", ln.Addr())
	log.Fatalf("spaceserver: %v", serve(ln, sp))
}

// serve accepts connections on ln until it is closed. Every connection
// gets its own gateway over sp, and all of them share one notify hub,
// so a durable notify session opened on one connection can be resumed
// from another.
func serve(ln net.Listener, sp *space.Space) error {
	hub := wrapper.NewNotifyHub()
	defer hub.Close()
	for {
		nc, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if err != nil {
			log.Printf("spaceserver: accept: %v", err)
			continue
		}
		conn := transport.NewTCPConn(nc)
		conn.OnError = func(err error) {
			log.Printf("spaceserver: %s: %v", nc.RemoteAddr(), err)
		}
		stack := wrapper.NewServerStack(conn, sp, wrapper.WithNotifyHub(hub))
		stack.Gateway.OnError = func(err error) {
			log.Printf("spaceserver: %s: gateway: %v", nc.RemoteAddr(), err)
		}
		log.Printf("spaceserver: client %s connected (space size %d)", nc.RemoteAddr(), sp.Size())
	}
}
