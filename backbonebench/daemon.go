package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
)

// daemon is one backboned process started from the binary built from
// the tree under test.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// control is the client for readiness probes and /statsz: one
// connection per call, so the load keeps its two connections to itself.
var control = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// startDaemon starts backboned with two workers on a free loopback port
// and returns once /readyz answers 200. A port taken between probing
// and binding makes the daemon exit; the start is then retried.
//
// Each cache gets 16 MiB instead of its default budget (256 MiB of
// graphs, 128 MiB of score tables): serve-hot's working set (8 graphs
// of about 1.1 MiB, 24 tables of at most 0.5 MiB) still fits, serve-cold
// evicts from its first second instead of after 250 requests, and the
// daemon's peak resident set stays near 150 MiB instead of passing
// 1 GiB. The smaller heap also nearly halved serve-cold's run-to-run
// p90 spread in interleaved runs (0.12 against 0.20 with 64/32 MiB).
func startDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = tryStartDaemon(ctx, bin, logPath); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryStartDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-graph-cache-mb", "16", "-score-cache-mb", "16")
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = childProcAttr()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start backboned: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: log, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			log.Close()
			return nil, fmt.Errorf("backboned exited during start-up (%v); see %s", d.waitErr, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		if resp, err := control.Get(d.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("backboned not ready after 30s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10 s), waits
// for it to exit and returns its peak resident set in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	return peakRSSMB(d.cmd.ProcessState.SysUsage())
}

// statsz is the part of GET /statsz the per-layer metrics read, typed
// with the daemon's own counter structs.
type statsz struct {
	GraphCache cache.Stats `json:"graph_cache"`
	ScoreCache cache.Stats `json:"score_cache"`
	Sessions   struct {
		Reads        uint64 `json:"reads"`
		RescoredRows uint64 `json:"rescored_rows"`
		FullRescores uint64 `json:"full_rescores"`
	} `json:"sessions"`
	Admission struct {
		admission.Stats
		DeadlineViolations uint64 `json:"deadline_violations"`
	} `json:"admission"`
}

func (d *daemon) statsz() (*statsz, error) {
	resp, err := control.Get(d.url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /statsz: %s", resp.Status)
	}
	var s statsz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("GET /statsz: %w", err)
	}
	return &s, nil
}
