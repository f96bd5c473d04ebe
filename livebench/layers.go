package main

import (
	"runtime/metrics"
	"strings"
	"time"

	tas "repro"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit, better string }

// perLayer lists every per-layer metric a traced run prints, in report
// order. Each is measured from outside the stack: spans the benchmark
// records around its own calls, the fabric capture, or before/after
// deltas of the layers' public counters.
var perLayer = []metricDef{
	{"stage.client_tx_us.p50", "us", "lower"},
	{"stage.client_tx_us.p99", "us", "lower"},
	{"stage.server_turn_us.p50", "us", "lower"},
	{"stage.server_turn_us.p99", "us", "lower"},
	{"stage.client_rx_us.p50", "us", "lower"},
	{"stage.client_rx_us.p99", "us", "lower"},
	{"capture.unmatched", "count", "lower"},
	{"capture.misordered", "count", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"libtas.write_us.p50", "us", "lower"},
	{"libtas.copy_ns_per_call", "ns", "lower"},
	{"libtas.wakeup_us.client_p50", "us", "lower"},
	{"libtas.wakeup_us.server_p50", "us", "lower"},
	{"fastpath.rx_ns_per_pkt", "ns", "lower"},
	{"fastpath.tx_ns_per_item", "ns", "lower"},
	{"fastpath.busy_frac", "ratio", "lower"},
	{"fastpath.pkts_per_batch", "count", "higher"},
	{"fastpath.blocks_per_op", "count", "lower"},
	{"fastpath.acks_per_op", "count", "lower"},
	{"fastpath.drops", "count", "lower"},
	{"fastpath.frexmits", "count", "lower"},
	{"shmring.rx_depth_p99", "count", "lower"},
	{"shmring.ctx_tx_depth_p99", "count", "lower"},
	{"shmring.ctx_ev_depth_p99", "count", "lower"},
	{"fabric.pkts_per_op", "count", "lower"},
	{"fabric.drops", "count", "lower"},
	{"slowpath.dial_us.p50", "us", "lower"},
	{"slowpath.close_us.p50", "us", "lower"},
	{"slowpath.handshake_us.p50", "us", "lower"},
	{"slowpath.cc_ns_per_tick", "ns", "lower"},
	{"slowpath.timer_ns_per_tick", "ns", "lower"},
	{"slowpath.busy_frac", "ratio", "lower"},
	{"resource.flows_peak", "count", "lower"},
	{"resource.half_open_peak", "count", "lower"},
	{"resource.time_wait_peak", "count", "lower"},
	{"resource.rejects", "count", "lower"},
	{"resource.leak", "count", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.bytes_per_op", "B", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
}

// snapshot is the layers' public counters at one instant, summed over
// both services.
type snapshot struct {
	at                                       time.Time
	rxPkts, busyLoops, blocks, acks, frexmit uint64
	drops, rejects                           uint64
	fab                                      tas.FabricStats
	reg                                      map[string]float64 // traced: cycle accounts and pool peaks
	mem                                      memSample
}

func takeSnapshot(r *rig) *snapshot {
	s := &snapshot{at: time.Now(), fab: r.fab.Stats(), mem: readMem(), reg: map[string]float64{}}
	for _, svc := range r.services() {
		eng := svc.Engine()
		for i := 0; i < eng.MaxCores(); i++ {
			st := eng.Stats(i)
			s.rxPkts += st.RxPackets.Load()
			s.busyLoops += st.BusyLoops.Load()
			s.blocks += st.Blocks.Load()
			s.acks += st.AcksSent.Load()
			s.frexmit += st.Frexmits.Load()
		}
		ss := svc.Stats()
		s.drops += ss.RxRingDrops + ss.RxBufDrops + ss.ExcqDrops + ss.BadDescDrops + ss.OooDropped
		for _, n := range ss.PoolRejects {
			s.rejects += n
		}
		s.rejects += ss.QuotaRejects
		reg := svc.Metrics()
		if reg == nil {
			continue
		}
		for _, m := range reg.Samples() {
			switch m.Name {
			case "tas_cycles_nanos_total", "tas_cycles_items_total":
				// Rows are core0..coreN (fast path), slow and app.
				row := m.Labels["core"]
				if strings.HasPrefix(row, "core") {
					row = "fast"
				}
				field := strings.TrimSuffix(strings.TrimPrefix(m.Name, "tas_cycles_"), "_total")
				s.reg["cycles/"+row+"/"+m.Labels["module"]+"/"+field] += m.Value
			case "tas_pool_peak":
				k := "peak/" + m.Labels["pool"]
				s.reg[k] = max(s.reg[k], m.Value)
			}
		}
	}
	return s
}

// memSample is the Go runtime's cumulative allocation and CPU counts.
type memSample struct{ allocs, bytes, gcCPU, totalCPU float64 }

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return memSample{v(0), v(1), v(2), v(3)}
}

// depthSamples are ring occupancies sampled about once a millisecond
// during a traced window, one value per service per sample.
type depthSamples struct{ rx, ctxTx, ctxEv []float64 }

// sampleDepths samples the fast path's receive rings and the context
// TX-command and event rings until the given time.
func sampleDepths(r *rig, until time.Time) *depthSamples {
	d := &depthSamples{}
	for time.Now().Before(until) {
		for _, svc := range r.services() {
			eng := svc.Engine()
			rx, tx, ev := 0, 0, 0
			for i := 0; i < eng.MaxCores(); i++ {
				n, _ := eng.RxRingDepth(i)
				rx += n
			}
			for _, ctx := range eng.Contexts() {
				if ctx == nil {
					continue
				}
				for i := 0; i < ctx.Cores(); i++ {
					tx += ctx.TxQueueLen(i)
					ev += ctx.EventQueueLen(i)
				}
			}
			d.rx = append(d.rx, float64(rx))
			d.ctxTx = append(d.ctxTx, float64(tx))
			d.ctxEv = append(d.ctxEv, float64(ev))
		}
		time.Sleep(time.Millisecond)
	}
	return d
}

// layerSample is one traced round's per-layer report: a value for every
// metric in perLayer, and for the ones the workload cannot measure, the
// reason instead.
type layerSample struct {
	values  map[string]float64
	absent  map[string]string
	samples map[string]int
}

func (ls *layerSample) set(name string, v float64, samples int) {
	ls.values[name] = v
	ls.samples[name] = samples
}

func (ls *layerSample) missing(reason string, names ...string) {
	for _, n := range names {
		ls.values[n] = 0
		ls.absent[n] = reason
	}
}

// setQuantiles reports the p50 (and p99 when named) of durations.
func (ls *layerSample) setQuantiles(base string, v []float64, p99 bool, reason string) {
	names := []string{base + ".p50"}
	if p99 {
		names = append(names, base+".p99")
	}
	if len(v) == 0 {
		ls.missing(reason, names...)
		return
	}
	n := len(v)
	ls.set(names[0], quantileF(v, 0.50), n)
	if p99 {
		ls.set(names[1], quantileF(v, 0.99), n)
	}
}

func nsToUS(v []uint32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) / 1e3
	}
	return out
}

// measureLayers computes one traced round's per-layer metrics.
func measureLayers(r *rig, rr *roundResult, logs []*opLog, b, a *snapshot, d *depthSamples) *layerSample {
	ls := &layerSample{values: map[string]float64{}, absent: map[string]string{}, samples: map[string]int{}}
	ops := float64(rr.ok())
	wall := a.at.Sub(b.at).Seconds()
	delta := func(k string) float64 { return a.reg[k] - b.reg[k] }
	perItem := func(row, mod string) float64 {
		return ratio(delta("cycles/"+row+"/"+mod+"/nanos"), delta("cycles/"+row+"/"+mod+"/items"))
	}
	nanos := func(row string, mods ...string) float64 {
		var n float64
		for _, m := range mods {
			n += delta("cycles/" + row + "/" + m + "/nanos")
		}
		return n
	}
	var spans []rpcSpan
	var writes, dials, closes []uint32
	for _, l := range logs {
		spans = append(spans, l.spans...)
		writes = append(writes, l.writes...)
		dials = append(dials, l.dials...)
		closes = append(closes, l.closes...)
	}

	// Capture stages.
	if r.capt.keyed {
		st := r.capt.correlate(spans)
		ls.setQuantiles("stage.client_tx_us", st.clientTx, true, "no RPC completed inside the window")
		ls.setQuantiles("stage.server_turn_us", st.serverTurn, true, "no RPC completed inside the window")
		ls.setQuantiles("stage.client_rx_us", st.clientRx, true, "no RPC completed inside the window")
		ls.set("capture.unmatched", float64(st.unmatched), len(spans))
		ls.set("capture.misordered", float64(st.misordered), len(spans))
	} else {
		ls.missing("several requests share one segment, so segments cannot be matched to requests",
			"stage.client_tx_us.p50", "stage.client_tx_us.p99", "stage.server_turn_us.p50",
			"stage.server_turn_us.p99", "stage.client_rx_us.p50", "stage.client_rx_us.p99",
			"capture.unmatched", "capture.misordered")
	}

	// libtas.
	ls.setQuantiles("libtas.write_us", nsToUS(writes), false, "no Write call ended inside the window")
	if delta("cycles/app/app-copy/nanos") > 0 {
		ls.set("libtas.copy_ns_per_call", perItem("app", "app-copy"), int(delta("cycles/app/app-copy/items")))
	} else {
		ls.missing("libtas times one copy in 32 per connection, and no connection reached a timed copy", "libtas.copy_ns_per_call")
	}
	for i, side := range []string{"server", "client"} {
		name := "libtas.wakeup_us." + side + "_p50"
		h := r.services()[i].Telemetry().Wakeup
		if h.Count() == 0 {
			ls.missing("this side's application never blocked on a sampled wakeup", name)
			continue
		}
		ls.set(name, h.Quantile(0.5), int(h.Count()))
	}

	// Fast path: one core per service.
	fastCores := float64(r.srv.Engine().MaxCores() + r.cli.Engine().MaxCores())
	ls.set("fastpath.rx_ns_per_pkt", perItem("fast", "rx"), int(delta("cycles/fast/rx/items")))
	ls.set("fastpath.tx_ns_per_item", perItem("fast", "tx"), int(delta("cycles/fast/tx/items")))
	ls.set("fastpath.busy_frac", ratio(nanos("fast", "rx", "tx")/1e9, wall*fastCores), 0)
	ls.set("fastpath.pkts_per_batch", ratio(float64(a.rxPkts-b.rxPkts), float64(a.busyLoops-b.busyLoops)), int(a.busyLoops-b.busyLoops))
	ls.set("fastpath.blocks_per_op", ratio(float64(a.blocks-b.blocks), ops), int(ops))
	ls.set("fastpath.acks_per_op", ratio(float64(a.acks-b.acks), ops), int(ops))
	ls.set("fastpath.drops", float64(a.drops-b.drops), 0)
	ls.set("fastpath.frexmits", float64(a.frexmit-b.frexmit), 0)

	// Shared-memory rings.
	n := len(d.rx)
	ls.set("shmring.rx_depth_p99", quantileF(d.rx, 0.99), n)
	ls.set("shmring.ctx_tx_depth_p99", quantileF(d.ctxTx, 0.99), n)
	ls.set("shmring.ctx_ev_depth_p99", quantileF(d.ctxEv, 0.99), n)

	// Fabric.
	ls.set("fabric.pkts_per_op", ratio(float64(a.fab.Delivered-b.fab.Delivered), ops), int(ops))
	ls.set("fabric.drops", float64(a.fab.Dropped-b.fab.Dropped), 0)

	// Slow path.
	const noCycle = "the workload opens and closes no connection inside the window"
	ls.setQuantiles("slowpath.dial_us", nsToUS(dials), false, noCycle)
	ls.setQuantiles("slowpath.close_us", nsToUS(closes), false, noCycle)
	if h := r.srv.Telemetry().Handshake; h.Count() > 0 {
		ls.set("slowpath.handshake_us.p50", h.Quantile(0.5), int(h.Count()))
	} else {
		ls.missing("no handshake completed", "slowpath.handshake_us.p50")
	}
	ls.set("slowpath.cc_ns_per_tick", perItem("slow", "cc"), int(delta("cycles/slow/cc/items")))
	ls.set("slowpath.timer_ns_per_tick", perItem("slow", "timer"), int(delta("cycles/slow/timer/items")))
	ls.set("slowpath.busy_frac", ratio(nanos("slow", "cc", "timer", "reaper", "migrate")/1e9, wall*2), 0)

	// Resource governor: peaks since the services started.
	ls.set("resource.flows_peak", a.reg["peak/flows"], 0)
	ls.set("resource.half_open_peak", a.reg["peak/half_open"], 0)
	ls.set("resource.time_wait_peak", a.reg["peak/time_wait"], 0)
	ls.set("resource.rejects", float64(a.rejects-b.rejects), 0)
	return ls
}
