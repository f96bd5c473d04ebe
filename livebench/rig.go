package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	tas "repro"
)

// stackConfig is the tas.Config every workload pins on both services:
// one fast-path core that never scales, and every other field at its
// default (DCTCP, 256 KiB buffers). Telemetry is on only in traced
// rounds.
func stackConfig(traced bool) tas.Config {
	return tas.Config{
		FastPathCores:      1,
		DisableCoreScaling: true,
		Telemetry:          tas.TelemetryConfig{Enabled: traced},
	}
}

// auditedPools are the governor pools that must return to their
// pre-workload occupancy once a workload's connections have closed.
var auditedPools = []string{"flows", "payload_bytes", "half_open", "timers", "accept"}

// leakWait bounds how long the leak audit waits for the pools to drain.
const leakWait = 5 * time.Second

// rig is one round's live stack: a fabric, a server and a client
// service, a listener whose accepted connections are handed to server
// goroutines with contexts of their own, and the client contexts.
type rig struct {
	w      *workload
	seed   int64
	traced bool

	fab  *tas.Fabric
	srv  *tas.Service
	cli  *tas.Service
	ln   *tas.Listener
	cctx []*tas.Context // one per client goroutine
	hctx []*tas.Context // one per server goroutine
	all  []*tas.Context

	capt        *capture
	stopCapture func() error

	accepted chan *tas.Conn
	bound    chan struct{} // one token per connection a server goroutine took over
	begin    chan struct{} // closed once the round's window is fixed
	stop     chan struct{}
	servers  sync.WaitGroup
	hlogs    []*opLog

	bulkIn *bulkInput
	bulk   []*bulkStream

	baseline  [2]map[string]int64 // audited pools after set-up, before any connection
	srvErrors atomic.Int64        // server goroutines that gave up on a connection
}

func (r *rig) services() [2]*tas.Service { return [2]*tas.Service{r.srv, r.cli} }

func (r *rig) serverError() { r.srvErrors.Add(1) }

// newRig builds the stack up to the listener, its server goroutines and
// the client contexts. The capture, when traced, is attached before any
// service exists: Fabric.Tap is not synchronised with senders.
func newRig(w *workload, seed int64, traced bool, bulkIn *bulkInput) (*rig, error) {
	r := &rig{w: w, seed: seed, traced: traced, bulkIn: bulkIn}
	r.fab = tas.NewFabric()
	if traced {
		r.capt = newCapture(srvAddr, port, w.matched)
		stop, err := r.fab.CaptureTo(r.capt)
		if err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		r.stopCapture = stop
	}
	var err error
	if r.srv, err = r.fab.NewService(srvAddr, stackConfig(traced)); err != nil {
		r.close()
		return nil, fmt.Errorf("server service: %w", err)
	}
	if r.cli, err = r.fab.NewService(cliAddr, stackConfig(traced)); err != nil {
		r.close()
		return nil, fmt.Errorf("client service: %w", err)
	}
	lctx := r.srv.NewContext()
	r.all = append(r.all, lctx)
	if r.ln, err = lctx.Listen(port); err != nil {
		r.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	// One server goroutine per client goroutine: each serves the
	// connections handed to it to completion, on its own context.
	r.accepted = make(chan *tas.Conn, w.clients)
	r.bound = make(chan struct{}, w.clients)
	r.begin = make(chan struct{})
	r.stop = make(chan struct{})
	for range w.clients {
		ctx := r.srv.NewContext()
		r.hctx = append(r.hctx, ctx)
		r.all = append(r.all, ctx)
	}
	for range w.clients {
		ctx := r.cli.NewContext()
		r.cctx = append(r.cctx, ctx)
		r.all = append(r.all, ctx)
	}
	if w.name == "bulk" {
		for range w.clients {
			r.bulk = append(r.bulk, &bulkStream{})
		}
	}
	for i, s := range r.services() {
		r.baseline[i] = s.Stats().PoolUsed
	}
	return r, nil
}

// startServers launches the accept loop and the server goroutines.
// Each server goroutine takes a connection over onto its own context,
// reports it on bound, and serves it once begin is closed.
func (r *rig) startServers() {
	r.servers.Add(1)
	go func() {
		defer r.servers.Done()
		defer close(r.accepted)
		for {
			c, err := r.ln.Accept(50 * time.Millisecond)
			select {
			case <-r.stop:
				if err == nil {
					c.Close()
				}
				return
			default:
			}
			if err != nil {
				continue
			}
			r.accepted <- c
		}
	}()
	for i := range r.hctx {
		log := &opLog{traced: r.traced}
		r.hlogs = append(r.hlogs, log)
		ctx := r.hctx[i]
		r.servers.Add(1)
		go func() {
			defer r.servers.Done()
			for c := range r.accepted {
				c.Rebind(ctx)
				select {
				case r.bound <- struct{}{}:
				default:
				}
				<-r.begin
				r.w.serve(r, c, log)
			}
		}()
	}
}

// awaitBound waits until the server goroutines have taken over n
// connections, or the operation deadline passes.
func (r *rig) awaitBound(n int) error {
	timeout := time.NewTimer(opDeadline)
	defer timeout.Stop()
	for i := range n {
		select {
		case <-r.bound:
		case <-timeout.C:
			return fmt.Errorf("server took over %d of %d connections within %v", i, n, opDeadline)
		}
	}
	return nil
}

// open fixes the round's window for the server goroutines' logs and
// lets them serve.
func (r *rig) open(win window) {
	for _, l := range r.hlogs {
		l.win = win
	}
	close(r.begin)
}

// stopServers ends the accept loop and waits for every server
// goroutine to finish its current connection.
func (r *rig) stopServers() {
	close(r.stop)
	r.servers.Wait()
}

// leaks waits up to leakWait for every audited pool of both services to
// return to its pre-workload occupancy, and returns the pools that did
// not, as "service/pool" names.
func (r *rig) leaks() []string {
	deadline := time.Now().Add(leakWait)
	for {
		var off []string
		for i, s := range r.services() {
			used := s.Stats().PoolUsed
			for _, p := range auditedPools {
				if used[p] != r.baseline[i][p] {
					off = append(off, fmt.Sprintf("%s/%s=%d(baseline %d)", []string{"server", "client"}[i], p, used[p], r.baseline[i][p]))
				}
			}
		}
		if len(off) == 0 || time.Now().After(deadline) {
			return off
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the contexts' heartbeats and both services, then the
// capture. Stopping the capture only after the services are down keeps
// the Tap reset from racing a sender.
func (r *rig) close() error {
	for _, ctx := range r.all {
		ctx.Kill()
	}
	if r.cli != nil {
		r.cli.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.stopCapture != nil {
		if err := r.stopCapture(); err != nil {
			return fmt.Errorf("capture: %w", err)
		}
	}
	return nil
}
