package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pref/internal/serve"
)

// serverProc is one running prefserve. It lives in its own process group
// so that kill reaches anything it may have spawned.
type serverProc struct {
	cmd       *exec.Cmd
	base      string        // http://127.0.0.1:<port>
	coldStart time.Duration // process start → first 200 from /healthz
	exited    chan struct{} // closed once the process has been reaped
}

// live tracks every started server so a signal can kill them all; see
// killAllServers.
var live struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
}

// freePort asks the kernel for an unused loopback port by binding port 0.
// The listener is closed again before prefserve binds the port; nothing
// else on a benchmark host races for it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches prefserve and waits until /healthz answers 200.
func startServer(bin string, sf float64, seed int64, variant string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("server: free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-variant", variant,
		"-sf", strconv.FormatFloat(sf, 'g', -1, 64),
		"-parts", strconv.Itoa(parts),
		"-seed", strconv.FormatInt(seed, 10),
		"-tenants", tenant+":1",
		"-slots", "8",
	)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("server: start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]struct{}{}
	}
	live.procs[s] = struct{}{}
	live.mu.Unlock()

	exited := make(chan struct{})
	go func() {
		cmd.Wait() // the exit status of a killed server carries no news
		close(exited)
	}()
	s.exited = exited

	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.coldStart = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-exited:
			s.kill()
			return nil, fmt.Errorf("server: prefserve exited before becoming healthy")
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server: not healthy after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// kill SIGKILLs the server's process group and waits until the process
// has been reaped. Safe to call more than once.
func (s *serverProc) kill() {
	syscall.Kill(-s.pid(), syscall.SIGKILL) // ESRCH once it is gone: fine
	<-s.exited
	live.mu.Lock()
	delete(live.procs, s)
	live.mu.Unlock()
}

// killAllServers is the signal path: kill every live server's group.
func killAllServers() {
	live.mu.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for s := range live.procs {
		procs = append(procs, s)
	}
	live.mu.Unlock()
	for _, s := range procs {
		s.kill()
	}
}

// metrics scrapes the server's /metrics snapshot.
func (s *serverProc) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return m, fmt.Errorf("server: /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("server: /metrics: %w", err)
	}
	return m, nil
}
