package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	tas "repro"
)

// warmup is how long each round runs before its window opens.
const warmup = 100 * time.Millisecond

// roundResult is what one round measured.
type roundResult struct {
	setup     time.Duration
	window    time.Duration
	lats      []uint32 // sorted windowed latencies; failures are failedNS
	failed    int
	bytes     int64
	firstErr  error
	srvErrors int64
	leaks     []string
	problems  []string // failed correctness and self-checks

	goAllocs, goBytes, gcFrac float64 // Go runtime, per operation / share of CPU

	// Traced rounds only.
	layer                    *layerSample
	capturePkts, captureData int
}

func (rr *roundResult) ok() int { return len(rr.lats) - rr.failed }

// runRound sets up a fresh stack, runs the workload through a warm-up
// and a window of length dur, and tears the stack down with a leak
// audit. A set-up failure is returned as an error.
func runRound(w *workload, seed int64, dur time.Duration, traced bool, in *bulkInput) (*roundResult, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := newRig(w, seed, traced, in)
	if err != nil {
		return nil, err
	}
	r.startServers()
	conns := make([]*tas.Conn, w.clients)
	if w.dialed {
		for i, ctx := range r.cctx {
			c, err := ctx.DialTimeout(srvAddr, port, opDeadline)
			if err != nil {
				abortSetup(r, conns[:i])
				return nil, fmt.Errorf("set-up dial %d: %w", i, err)
			}
			conns[i] = c
		}
		// A connection is set up once the server serves it from its own
		// context. Until then the server's end is on the listener's
		// context, whose single-producer event ring takes accept events
		// from the slow path; requests arriving there at the same time
		// add fast-path events to that ring and can lose an accept
		// (the churn workload shows it). So no request is sent before
		// every connection has moved.
		if err := r.awaitBound(len(conns)); err != nil {
			abortSetup(r, conns)
			return nil, fmt.Errorf("set-up accept: %w", err)
		}
	}
	ready := time.Now()
	win := window{start: ready.Add(warmup), end: ready.Add(warmup + dur)}
	r.open(win)
	rr := &roundResult{setup: time.Since(t0), window: dur}

	logs := make([]*opLog, w.clients)
	var clients sync.WaitGroup
	for i := range logs {
		logs[i] = &opLog{win: win, traced: traced}
		clients.Add(1)
		go func() {
			defer clients.Done()
			w.client(r, i, conns[i], logs[i])
		}()
	}

	time.Sleep(time.Until(win.start))
	before := takeSnapshot(r)
	var depths *depthSamples
	if traced {
		depths = sampleDepths(r, win.end)
	}
	time.Sleep(time.Until(win.end))
	after := takeSnapshot(r)

	clients.Wait()
	r.stopServers()
	rr.leaks = r.leaks()
	if err := r.close(); err != nil {
		rr.problems = append(rr.problems, err.Error())
	}
	rr.srvErrors = r.srvErrors.Load()

	all := append(logs, r.hlogs...)
	for _, l := range all {
		rr.lats = append(rr.lats, l.lats...)
		rr.failed += l.failed
		rr.bytes += l.bytes
		if rr.firstErr == nil {
			rr.firstErr = l.firstErr
		}
		if l.mismatch != nil {
			rr.problems = append(rr.problems, l.mismatch.Error())
		}
	}
	slices.Sort(rr.lats)
	ops := float64(rr.ok())
	rr.goAllocs = ratio(after.mem.allocs-before.mem.allocs, ops)
	rr.goBytes = ratio(after.mem.bytes-before.mem.bytes, ops)
	rr.gcFrac = ratio(after.mem.gcCPU-before.mem.gcCPU, after.mem.totalCPU-before.mem.totalCPU)
	if traced {
		rr.layer = measureLayers(r, rr, all, before, after, depths)
		rr.capturePkts, rr.captureData = r.capt.counts()
	}
	return rr, nil
}

// abortSetup closes the connections dialed so far and tears the stack
// down after a failed set-up.
func abortSetup(r *rig, conns []*tas.Conn) {
	for _, c := range conns {
		c.Close()
	}
	close(r.begin)
	r.stopServers()
	r.close()
}
