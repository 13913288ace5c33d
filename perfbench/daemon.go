package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynsum/internal/pag"
)

// daemon is one dynsumd process started from the binary built from the
// checkout, serving a .pag file on a loopback port, with a client that
// keeps at most conns connections to it.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been waited for
	once   sync.Once
	url    string
	client *http.Client
	log    *os.File
}

// startDaemon starts a fresh dynsumd on pagPath and waits for /readyz.
// It runs on this process's CPU (pinToLastCPU), with GOMAXPROCS 1 and
// one worker per lane.
func startDaemon(cfg *config, pagPath string, conns int) (*daemon, error) {
	if cfg.dynsumd == "" {
		return nil, errors.New("no dynsumd binary given (-dynsumd)")
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(cfg.outDir+"/dynsumd.log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.dynsumd, "-addr", addr, "-workers", "1", pagPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, should the benchmark be killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{
		cmd:  cmd,
		done: make(chan struct{}),
		url:  "http://" + addr,
		log:  logf,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.log.Close()
			return nil, fmt.Errorf("dynsumd exited before it was ready (see %s/dynsumd.log)", cfg.outDir)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("dynsumd not ready within 60s")
		}
	}
}

// freeLoopbackAddr asks the kernel for a free loopback port.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// after ten seconds, and waits for the process either way. Later calls
// do nothing.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.client.CloseIdleConnections()
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	})
}

// peakRSSMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// post sends one JSON body and decodes a 2xx JSON reply into out (when
// non-nil). A non-2xx status is an error carrying the daemon's message.
func (d *daemon) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (d *daemon) createSession(ctx context.Context, id string) error {
	body := fmt.Appendf(nil, `{"id":%q,"tenant":%q}`, id, "tenant-"+id)
	return d.post(ctx, "/v1/sessions", body, nil)
}

// queryReply is dynsumd's /v1/query response.
type queryReply struct {
	Lane     string `json:"lane"`
	QueuedNS int64  `json:"queued_ns"`
	RanNS    int64  `json:"ran_ns"`
	Results  []struct {
		Var     int64   `json:"var"`
		Objects []int64 `json:"objects"`
		Err     string  `json:"err"`
	} `json:"results"`
}

func (d *daemon) query(ctx context.Context, session string, vars []pag.NodeID) (*queryReply, error) {
	body := fmt.Appendf(make([]byte, 0, 64+8*len(vars)), `{"session":%q,"vars":[`, session)
	for i, v := range vars {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(v), 10)
	}
	body = append(body, "]}"...)
	var r queryReply
	if err := d.post(ctx, "/v1/query", body, &r); err != nil {
		return nil, err
	}
	if len(r.Results) != len(vars) {
		return nil, fmt.Errorf("/v1/query: %d results for %d vars", len(r.Results), len(vars))
	}
	return &r, nil
}

// engineMetrics is the part of dynsumd's /metrics the benchmark reads:
// the engine counters summed over sessions.
type engineMetrics struct {
	Engine struct {
		Summaries   int64
		CacheHits   int64
		CacheMisses int64
	} `json:"engine"`
}

func (d *daemon) metrics(ctx context.Context) (*engineMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m engineMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

// objectsHash fingerprints a sorted object list, so answers can be kept
// compactly during the timed window and compared after it.
func objectsHash[T int64 | pag.NodeID](objs []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range objs {
		v := uint64(o)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// writePAG writes prog in the textual PAG format dynsumd loads.
func writePAG(path string, prog *pag.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pag.Encode(f, prog); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
