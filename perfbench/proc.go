package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tpspace/internal/transport"
	"tpspace/internal/wrapper"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// server is a running spaceserver child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
	mu   sync.Mutex
	tail []byte // last bytes of its stderr, for error reports
}

// startServer launches spaceserver on a loopback port with the given
// deployment flags and waits for its listening line.
func startServer(bin string, flags ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spaceserver: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain stderr for the life of the process: a full pipe would
		// stall the server's logging and with it the server.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			s.mu.Lock()
			s.tail = append(s.tail, line...)
			s.tail = append(s.tail, '\n')
			if len(s.tail) > 4096 {
				s.tail = s.tail[len(s.tail)-4096:]
			}
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("spaceserver exited before listening: %s", s.stderrTail())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("spaceserver did not start listening within 60s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(string(s.tail))
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop kills the process and waits until it has been reaped.
func (s *server) stop() {
	if !s.exited() {
		_ = s.cmd.Process.Kill()
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
	}
}

// dial opens one load-generator connection to addr.
func dial(addr string, binary bool, tr *tracedConn) (*wrapper.Client, *transport.TCPConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, nil, err
	}
	tc := transport.NewTCPConn(nc)
	var conn transport.Conn = tc
	if tr != nil {
		tr.inner = tc
		conn = tr
	}
	var opts []wrapper.ClientOption
	if binary {
		opts = append(opts, wrapper.WithBinaryCodec())
	}
	return wrapper.NewClient(conn, opts...), tc, nil
}

// measureSetup starts spaceserver n times and times each start, from
// launching the process to the first reply that ready accepts. All
// but the last server are stopped; the last is returned running.
func measureSetup(n int, bin string, flags []string, binary bool, prepare func() error,
	ready func(c *wrapper.Client) error) (*server, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		srv, err := startServer(bin, flags...)
		if err != nil {
			return nil, nil, err
		}
		c, _, err := dial(srv.addr, binary, nil)
		if err == nil {
			err = ready(c)
			c.Close()
		}
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			srv.stop()
			return nil, nil, fmt.Errorf("first reply: %w (server log: %s)", err, srv.stderrTail())
		}
		if i == n-1 {
			return srv, times, nil
		}
		srv.stop()
	}
	return nil, nil, errors.New("no set-up rounds")
}

// pingReady accepts the server once a ping round trip succeeds.
func pingReady(c *wrapper.Client) error {
	done := make(chan bool, 1)
	c.Ping(func(ok bool) { done <- ok })
	select {
	case ok := <-done:
		if !ok {
			return errors.New("ping failed")
		}
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("ping timed out")
	}
}

// procCPU returns a process's user+system CPU time across all threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// toolRun is one finished tpbench invocation.
type toolRun struct {
	out    []byte
	wall   time.Duration
	cpu    time.Duration
	rssMiB float64
}

func runTool(bin string, args ...string) (toolRun, error) {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	r := toolRun{out: out.Bytes(), wall: time.Since(t0)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMiB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return r, nil
}

// provenance identifies what a record was measured on.
type provenance struct {
	NumCPU              int    `json:"num_cpu"`
	LoadgenGOMAXPROCS   int    `json:"loadgen_gomaxprocs"`
	ServerGOMAXPROCS    int    `json:"server_gomaxprocs"`
	GoVersion           string `json:"go_version"`
	Commit              string `json:"commit"`
	SourceTree          string `json:"source_tree_sha256"`
	Host                string `json:"host"`
	GOOS                string `json:"goos"`
	GOARCH              string `json:"goarch"`
	ServerGOMAXPROCSSrc string `json:"server_gomaxprocs_source"`
}

func gatherProvenance(root string) provenance {
	p := provenance{
		NumCPU:            runtime.NumCPU(),
		LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		GOOS:              runtime.GOOS,
		GOARCH:            runtime.GOARCH,
		Commit:            "unknown",
		SourceTree:        treeHash(root),
	}
	p.Host, _ = os.Hostname()
	// spaceserver inherits this environment; without GOMAXPROCS set
	// the Go runtime (before 1.25) uses NumCPU, ignoring CPU quotas.
	p.ServerGOMAXPROCS, p.ServerGOMAXPROCSSrc = runtime.NumCPU(), "runtime default (NumCPU)"
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		p.ServerGOMAXPROCS, p.ServerGOMAXPROCSSrc = v, "GOMAXPROCS environment"
	}
	// Only a repository rooted at root names the commit; an enclosing
	// one would name somebody else's.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		if f := strings.Fields(string(out)); len(f) == 2 {
			top, _ := filepath.EvalSymlinks(f[0])
			self, _ := filepath.EvalSymlinks(root)
			if top == self {
				p.Commit = f[1]
			}
		}
	}
	return p
}

// treeHash fingerprints the Go sources and module files under root,
// so a record names the code it measured even outside a git checkout.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
