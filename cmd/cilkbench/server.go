package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServe compiles examples/serve into outdir and returns the binary's
// path. moddir is this benchmark's module directory: the go command resolves
// cilkgo/examples/serve through its replace directive, so the server is built
// from the checkout's own source.
func buildServe(moddir, outdir string) (string, error) {
	out, err := filepath.Abs(filepath.Join(outdir, "cilkbench_serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "cilkgo/examples/serve")
	cmd.Dir = moddir
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build cilkgo/examples/serve: %v\n%s", err, b)
	}
	return out, nil
}

// httpArm is the platform behind examples/serve: a subprocess this arm
// starts and stops, and one keep-alive client. A request is one GET.
type httpArm struct {
	cmd     *exec.Cmd
	workers int
	base    string
	client  *http.Client
}

// freeAddr asks the kernel for an unused loopback port. The port is free
// when the listener closes; the server binds it a moment later.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots examples/serve with the given worker count and waits
// until it answers. Admission is armed with limits the closed loop never
// reaches. A traced run asks for the X-Cilk-Stats header, whose queued=
// field is the only view of the server's lane wait from outside.
func startServer(bin string, workers int, traced bool) (arm, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-workers", strconv.Itoa(workers),
		"-maxqueued", "1024", "-maxactive", "1024"}
	if traced {
		args = append(args, "-statsheader")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	a := &httpArm{
		cmd:     cmd,
		workers: workers,
		base:    "http://" + addr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
			},
		},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := a.client.Get(a.base + "/sinsum?n=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return a, nil
		}
		if time.Now().After(deadline) {
			a.close()
			return nil, fmt.Errorf("server on %s did not come up: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (a *httpArm) get(path, tenant string) (body string, hdr http.Header, err error) {
	req, err := http.NewRequest(http.MethodGet, a.base+path, nil)
	if err != nil {
		return "", nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return string(b), resp.Header, nil
}

// field extracts key's value from a line of space-separated key=value
// pairs, the format of both the reply body and the X-Cilk-Stats header.
func field(line, key string) (string, bool) {
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok && k == key {
			return v, true
		}
	}
	return "", false
}

func (a *httpArm) do(k *kind, rq request, id int64, rec *recorder) (float64, error) {
	t0 := time.Now()
	body, hdr, err := a.get(k.path, tenants[rq.tenant].name)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	rs, ok := field(body, "result")
	if !ok {
		return 0, fmt.Errorf("GET %s: no result= in %q", k.path, body)
	}
	v, err := strconv.ParseFloat(rs, 64)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", k.path, err)
	}
	if rec != nil {
		// The server reports durations, not timestamps: elapsed= is its
		// Submit→Wait time and queued= the lane wait inside that. Centre the
		// handler in the round trip and start the queue wait with it; the
		// self time of "request" is then the HTTP layer's cost both ways.
		var kids []span
		if es, ok := field(body, "elapsed"); ok {
			if el, err := time.ParseDuration(es); err == nil && el <= t1.Sub(t0) {
				h0 := t0.Add((t1.Sub(t0) - el) / 2)
				kids = append(kids, rec.child("handler", h0, h0.Add(el)))
				if qs, ok := field(hdr.Get("X-Cilk-Stats"), "queued"); ok {
					if q, err := time.ParseDuration(qs); err == nil {
						kids = append(kids, rec.child("queue", h0, h0.Add(q)))
					}
				}
			}
		}
		rec.request(id, a.workers, "request:"+k.name, t0, t1, kids...)
	}
	return v, nil
}

// counters reads the server runtime's counters from /debug/vars, where
// examples/serve publishes Runtime.Metrics under "cilk".
func (a *httpArm) counters() (map[string]int64, error) {
	body, _, err := a.get("/debug/vars", "")
	if err != nil {
		return nil, err
	}
	var vars struct {
		Cilk map[string]int64 `json:"cilk"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Cilk, nil
}

// close stops the server (SIGTERM, so it drains; SIGKILL if it lingers) and
// waits until the process has ended.
func (a *httpArm) close() error {
	a.client.CloseIdleConnections()
	if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- a.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		a.cmd.Process.Kill()
		<-done
	}
	return nil
}
