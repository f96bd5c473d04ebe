// Package slowpath implements the TAS slow path (§3.2): connection
// control (ports, handshakes, teardown), the congestion-control loop
// that polls per-flow feedback from fast-path state every control
// interval and writes back rate limits, retransmission-timeout
// detection, and the workload-proportionality monitor that scales
// fast-path cores with load (§3.4).
//
// In the paper the slow path is a separate thread communicating with
// applications over a UNIX-domain-socket-bootstrapped context queue; in
// this in-process reproduction, libtas calls the exported methods
// directly, which stand in for those slow-path context-queue commands
// (new_flow, listen, accept, close).
package slowpath

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/congestion"
	"repro/internal/fastpath"
	"repro/internal/flowstate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/shmring"
	"repro/internal/telemetry"
)

// Errors returned by connection control.
var (
	ErrPortInUse  = errors.New("slowpath: port in use")
	ErrNoListener = errors.New("slowpath: connection refused")
	ErrNoPorts    = errors.New("slowpath: ephemeral ports exhausted")
	ErrClosed     = errors.New("slowpath: stack closed")
	// ErrDown: the slow path has crashed (or been killed by the fault
	// harness) and cannot take control-plane work. Established flows
	// keep flowing on the fast path; Connect/Listen fail fast until a
	// warm restart (Recover) brings a fresh instance up.
	ErrDown = errors.New("slowpath: control plane down")
)

// SYN-cookie modes (config.Config.SynCookies).
const (
	// SynCookiesAuto engages cookies per listener while it is under
	// pressure: half-open occupancy at half the backlog, or SYN arrival
	// rate above synRateThreshold. The empty string means auto.
	SynCookiesAuto = ""
	// SynCookiesAlways answers every SYN statelessly.
	SynCookiesAlways = "always"
	// SynCookiesOff disables cookies; overload falls back to shedding.
	SynCookiesOff = "off"
)

// Slow-path tuning that no caller changes.
const (
	// stallIntervals control intervals without ack progress trigger a
	// retransmission restart (§3.2).
	stallIntervals = 2

	// Core-scaling thresholds (§3.4), evaluated every scaleInterval: add
	// a core when aggregate idle capacity < addIdle cores, remove one
	// when > removeIdle.
	addIdle       = 0.2
	removeIdle    = 1.25
	scaleInterval = 10 * time.Millisecond

	// synRateThreshold is the per-listener SYN arrival rate (SYNs per
	// second) beyond which auto mode engages cookies for about a second.
	synRateThreshold = 512
)

// listener is a registered listening port. backlog bounds halfCount
// (in-flight handshakes) plus pending (established connections the
// application has not yet accepted; shared with the libtas listener,
// which decrements it on Accept). All fields besides pending are
// guarded by the owning stripe's lock.
type listener struct {
	port      uint16
	ctxID     uint16
	opaque    uint64
	backlog   int
	halfCount int
	pending   *atomic.Int32

	// SYN-cookie pressure tracking (stripe-locked): synWinStart/synInWin
	// is a one-second SYN arrival window; cookieUntil keeps cookie mode
	// sticky briefly after the trigger so a sawtoothing flood doesn't
	// flap between stateful and stateless handshakes.
	synWinStart time.Time
	synInWin    int
	cookieUntil time.Time
}

// halfOpen is an in-progress handshake. deadline is the next
// retransmission time; rto doubles per attempt until attempts exceeds
// the configured retry cap and the entry is reaped.
type halfOpen struct {
	key      protocol.FlowKey
	iss      uint32 // our initial sequence
	ctxID    uint16
	opaque   uint64
	passive  bool // true: we sent SYNACK (accepting); false: we sent SYN
	peerISS  uint32
	deadline time.Time
	rto      time.Duration
	attempts int
	lst      *listener // passive only: for backlog accounting
	mss      uint16    // cookie completions only: recovered MSS class
	born     time.Time // handshake start, for the completion-latency histogram;
	// zero on cookie reconstructions (the stateless path kept no start time).
}

// ccEntry is the slow path's per-flow congestion/timeout state.
type ccEntry struct {
	ctrl       congestion.RateController
	lastUna    uint32
	stallTicks int
	// consecTimeouts counts back-to-back retransmission timeouts with
	// no intervening ack progress; it doubles the next timeout's wait
	// (exponential backoff) and triggers an abort past MaxRetransmits.
	consecTimeouts int
	txEwma         float64
	// lastRate is the most recent rate written to the flow's bucket, so
	// the flight recorder only logs rate-change events on actual change
	// (the controller returns a rate every interval).
	lastRate float64

	// Zero-window persist state: while the peer advertises window 0 and
	// we hold data, the persist timer replaces the retransmission timer
	// (the stall is flow control, not loss). persistDeadline zero means
	// disarmed; persistRTO doubles per probe.
	persistDeadline time.Time
	persistRTO      time.Duration
	persistProbes   int

	// Keepalive state: kaNext is the engine-clock nanosecond of the
	// next probe (0 = not probing); kaProbes counts unanswered probes
	// since the flow last went idle. Any received segment Touches the
	// flow, which resets both.
	kaNext   int64
	kaProbes int
}

// closeEntry tracks a locally initiated teardown awaiting the peer's
// acknowledgement of our FIN, so lost FINs are retransmitted with
// backoff instead of leaving the peer half-closed forever.
type closeEntry struct {
	finSeq   uint32
	deadline time.Time
	rto      time.Duration
	attempts int

	// fw2 marks the entry as FIN_WAIT_2: our FIN is acknowledged but
	// the peer has not closed its direction. deadline is then the
	// FinWait2Timeout expiry instead of a retransmission deadline. The
	// entry keeps its single timer-pool charge across the transition.
	fw2 bool
}

// Slowpath drives one TAS instance's control plane.
type Slowpath struct {
	eng *fastpath.Engine
	cfg config.Config

	// Runtime objects shared with the engine and the service. gov is the
	// unified resource governor (nil = ungoverned): the slow path charges
	// every pool it owns to it (flows, payload bytes, half-open slots,
	// FIN timers, accept backlog), refuses admission when a pool or
	// per-app quota is exhausted, and drives the degradation ladder from
	// its control tick. The governor outlives this instance: a warm-
	// restarted slow path reconciles the pools whose entries died with
	// its predecessor (Recover). telem, when non-nil, enables the flow
	// flight recorder and slow-path cycle accounting (cc, timer, reaper
	// modules). newCtrl builds each flow's congestion controller.
	gov     *resource.Governor
	telem   *telemetry.Telemetry
	newCtrl func() congestion.RateController

	// synRateThreshold starts at the package constant; in-package tests
	// adjust it before Start (<= 0 keeps only the occupancy trigger).
	synRateThreshold int

	// stripes shard the listener and half-open tables by local port
	// (see stripes.go); stripeSh maps a port hash onto a stripe index.
	stripes  []*stripe
	stripeSh uint

	// mu guards the remaining central state: the congestion map, the
	// FIN-retransmission map, and the reaper's clocks. These are
	// touched by the single event-loop goroutine plus occasional API
	// calls — they were never the SYN-flood bottleneck.
	mu      sync.Mutex
	cc      map[*flowstate.Flow]*ccEntry
	closing map[*flowstate.Flow]*closeEntry

	// portCtr drives ephemeral port allocation (32768 + ctr%32768);
	// atomic so concurrent Dials don't need any shared lock.
	portCtr atomic.Uint32

	excq    *shmring.SPSC[*protocol.Packet]
	excWake <-chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Fault harness (the control-plane counterpart of the app-layer
	// Kill/Stall harness): kill terminates the event loop without any
	// cooperative cleanup, stallC wedges it for a duration, and
	// panicNext makes the next event-loop tick panic. dead marks the
	// instance crashed so API calls fail fast with ErrDown.
	kill      chan struct{}
	killOnce  sync.Once
	stallC    chan time.Duration
	panicNext atomic.Bool
	dead      atomic.Bool

	// lastTick is the event loop's view of when it last ran; a gap much
	// larger than the control interval means the loop was stalled (GC
	// pause, fault-harness Stall) and wall-clock liveness comparisons
	// are unsafe until apps have had a chance to beat again.
	lastTick time.Time

	// Stats. Atomic: exception handling on different stripes updates
	// them concurrently, and readers (metrics, tests) must not need the
	// event loop's cooperation.
	Established atomic.Uint64
	Accepted    atomic.Uint64
	Rejected    atomic.Uint64
	Timeouts    atomic.Uint64
	Reinjected  atomic.Uint64

	// Failure-handling stats.
	HandshakeRexmits  atomic.Uint64 // SYN/SYN-ACK retransmissions
	HandshakeTimeouts atomic.Uint64 // half-open entries reaped after retry cap
	FinRexmits        atomic.Uint64 // FIN retransmissions
	Aborts            atomic.Uint64 // flows aborted (RST sent) after retry cap

	// Peer-liveness stats (persist timer, keepalives, close lifecycle).
	PersistProbes       atomic.Uint64 // zero-window probes sent
	KeepaliveProbesSent atomic.Uint64 // keepalive probes sent
	PeerDeadZeroWindow  atomic.Uint64 // flows aborted: persist probe budget exhausted
	PeerDeadKeepalive   atomic.Uint64 // flows aborted: keepalive budget exhausted
	FinWait2Timeouts    atomic.Uint64 // FIN_WAIT_2 flows torn down at the bound
	TimeWaitReused      atomic.Uint64 // TIME_WAIT tuples recycled early by a higher-ISN SYN
	StrayRsts           atomic.Uint64 // RSTs sent for segments that match no connection state

	// fw2Count gauges flows currently in FIN_WAIT_2 (closing entries in
	// the fw2 phase); the TIME_WAIT gauge is eng.TimeWait.Len().
	fw2Count atomic.Int64

	// Application-failure and overload stats.
	AppsReaped       atomic.Uint64 // contexts reaped after missed heartbeats
	FlowsReaped      atomic.Uint64 // established flows reclaimed by the reaper
	ListenersReaped  atomic.Uint64 // listen ports reclaimed by the reaper
	HalfOpenReaped   atomic.Uint64 // half-open handshakes reclaimed by the reaper
	SynBacklogDrops  atomic.Uint64 // SYNs shed: listener backlog full
	AcceptQueueDrops atomic.Uint64 // established-but-undeliverable accepts torn down

	// Resource-governor stats (the governor's own Snapshot carries the
	// per-rung/per-pool detail; these two are the slow path's share).
	GovFlowDenied    atomic.Uint64 // flow installs refused: pool or quota exhausted
	GovIdleReclaimed atomic.Uint64 // idle flows reclaimed (RST) by the reclaim rung

	// Adversarial-traffic stats.
	SynCookiesSent      atomic.Uint64 // stateless cookie SYN-ACKs issued
	SynCookiesValidated atomic.Uint64 // completing ACKs whose cookie checked out
	SynCookiesRejected  atomic.Uint64 // cookie candidates that failed the MAC
	BlindRstDrops       atomic.Uint64 // RSTs dropped by RFC 5961 sequence validation

	// Control-plane failure-domain stats.
	FlowsReconstructed atomic.Uint64 // flows rebuilt from shared state by warm restart
	RecoveryAborts     atomic.Uint64 // flows aborted during recovery (unprovable state)
	Panics             atomic.Uint64 // event-loop panics survived as crashes

	// Data-plane failure-domain stats (see corewatch.go).
	CoreFailures      atomic.Uint64 // cores declared failed by the watchdog
	FlowsMigrated     atomic.Uint64 // flows re-adopted onto surviving cores
	CoreReadmits      atomic.Uint64 // failed cores folded back into steering
	CoreDrainRequeued atomic.Uint64 // packets/kicks requeued from dead cores' rings

	// coresW is the core watchdog's per-core state; owned by the event
	// loop (coreSweep), so it needs no lock.
	coresW []coreWatch

	lastReap   time.Time // rate-limits the liveness sweep
	reapResume time.Time // post-stall/restart grace: treat as everyone's beat
}

// New builds (but does not start) a slow path for the engine, sharing
// its telemetry. gov may be nil (ungoverned). newCtrl builds each flow's
// congestion controller; nil selects the one cfg.CongestionControl
// names, which the caller must have validated.
func New(eng *fastpath.Engine, cfg config.Config, gov *resource.Governor, newCtrl func() congestion.RateController) *Slowpath {
	cfg.SetDefaults()
	if newCtrl == nil {
		newCtrl = cfg.Controller()
	}
	excq, wake := eng.Exceptions()
	s := &Slowpath{
		eng: eng, cfg: cfg,
		gov: gov, telem: eng.Telemetry(), newCtrl: newCtrl,
		synRateThreshold: synRateThreshold,
		stripes:          newStripes(cfg.HandshakeStripes, gov),
		stripeSh:         stripeShift(cfg.HandshakeStripes),
		cc:               make(map[*flowstate.Flow]*ccEntry),
		closing:          make(map[*flowstate.Flow]*closeEntry),
		excq:             excq,
		excWake:          wake,
		stop:             make(chan struct{}),
		kill:             make(chan struct{}),
		stallC:           make(chan time.Duration, 1),
	}
	s.initCoreWatch()
	return s
}

// Start launches the slow-path goroutine.
func (s *Slowpath) Start() {
	s.eng.SlowpathBeat()
	s.wg.Add(1)
	go s.run()
}

// Stop terminates the slow path cooperatively. Idempotent, and safe
// after Kill (the loop is already gone).
func (s *Slowpath) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Kill simulates a slow-path crash: the event loop terminates
// immediately with no cleanup — half-open handshakes, cc entries, and
// pending teardowns are simply abandoned, exactly as a crashed process
// would leave them. The shared state (flow table, buffers, buckets,
// listener registry) survives in the engine; heartbeats cease, so the
// fast path's watchdog enters degraded mode. Kill waits for the loop to
// exit so recovery can scan quiescent state.
func (s *Slowpath) Kill() {
	s.dead.Store(true)
	s.killOnce.Do(func() { close(s.kill) })
	s.wg.Wait()
}

// Down reports whether this instance has crashed (Kill or an event-loop
// panic).
func (s *Slowpath) Down() bool { return s.dead.Load() }

// Stall wedges the event loop for d: no exception draining, no control
// ticks, no heartbeats — a livelocked control plane rather than a dead
// one. The watchdog flags degraded mode if d exceeds the fast path's
// SlowPathTimeout; processing (and heartbeats) resume afterwards.
func (s *Slowpath) Stall(d time.Duration) {
	select {
	case s.stallC <- d:
	default: // a stall is already pending; keep it
	}
}

// InjectPanic makes the next event-loop tick panic. The loop's recover
// treats it as a crash — the instance is marked dead, heartbeats stop —
// demonstrating that a slow-path bug cannot take down packet service
// for established flows.
func (s *Slowpath) InjectPanic() { s.panicNext.Store(true) }

func (s *Slowpath) run() {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			// An event-loop panic is a slow-path crash, not a process
			// crash: contain it, mark the instance dead, and leave the
			// fast path serving established flows until a warm restart.
			s.dead.Store(true)
			s.Panics.Add(1)
		}
	}()
	ctrl := time.NewTicker(s.cfg.ControlInterval)
	defer ctrl.Stop()
	scale := time.NewTicker(scaleInterval)
	defer scale.Stop()
	for {
		s.eng.SlowpathBeat()
		select {
		case <-s.stop:
			return
		case <-s.kill:
			return
		case d := <-s.stallC:
			time.Sleep(d) // wedged: no beats, no processing
			s.noteResume(time.Now())
		case <-s.excWake:
			s.drainExceptions()
		case <-ctrl.C:
			if s.panicNext.CompareAndSwap(true, false) {
				panic("slowpath: injected event-loop panic")
			}
			now := time.Now()
			// Detect that the loop itself was stalled (fault harness,
			// scheduler starvation): wall-clock-vs-heartbeat comparisons
			// are not meaningful across the gap, so open the reaper's
			// grace window instead of mass-reaping apps whose beats are
			// merely older than the stall.
			if !s.lastTick.IsZero() && now.Sub(s.lastTick) > s.stallGap() {
				s.noteResume(now)
			}
			s.lastTick = now
			// SYN-cookie key epochs advance on the engine-side jar so
			// they survive this instance's crash/restart.
			s.eng.Cookies.MaybeRotate(s.eng.NowNanos())
			s.drainExceptions()
			// Charge each control-plane module's share of the tick to the
			// slow-path cycle account. RefreshNow also keeps the cached
			// coarse clock (flight-recorder timestamps) fresh once per
			// tick even when the fast path is idle.
			var t int64
			if s.telem != nil {
				t = s.telem.RefreshNow()
			}
			s.controlLoop()
			t = s.charge(telemetry.ModCC, t)
			s.handshakeSweep()
			s.closeSweep()
			s.timeWaitSweep()
			t = s.charge(telemetry.ModTimer, t)
			s.reapSweep()
			s.charge(telemetry.ModReaper, t)
			s.governorTick()
			s.coreSweep(now)
		case <-scale.C:
			if !s.cfg.DisableCoreScaling {
				s.scaleLoop()
			}
		}
	}
}

// charge bills the slow-path cycles since t to module m and returns the
// clock reading that starts the next phase. Without telemetry it reads
// no clock and charges nothing.
func (s *Slowpath) charge(m telemetry.Module, t int64) int64 {
	if s.telem == nil {
		return 0
	}
	now := s.telem.RefreshNow()
	s.telem.Cycles.AddSlow(m, now-t, 1)
	return now
}

// record logs a flight-recorder event for a 4-tuple that may not have
// flow state yet (handshake phase): the event lands in the ring the
// installed flow later adopts, so a trace covers SYN through reap.
// No-op when telemetry is off.
func (s *Slowpath) record(key protocol.FlowKey, kind telemetry.FlowEventKind, seq, ack uint32, aux uint64) {
	if s.telem == nil {
		return
	}
	s.telem.Recorder.Ring(key.String()).Record(kind, seq, ack, 0, aux)
}

// recordFlow logs a flight-recorder event on an installed flow's ring.
func recordFlow(f *flowstate.Flow, kind telemetry.FlowEventKind, seq, ack, bytes uint32, aux uint64) {
	if f.Rec != nil {
		f.Rec.Record(kind, seq, ack, bytes, aux)
	}
}

// retireRec moves a removed flow's flight ring to the recorder's
// retired list for post-mortem inspection.
func (s *Slowpath) retireRec(f *flowstate.Flow) {
	if s.telem != nil && f.Rec != nil {
		s.telem.Recorder.Retire(f.Rec.Key())
	}
}

func (s *Slowpath) drainExceptions() {
	for {
		pkt, ok := s.excq.Dequeue()
		if !ok {
			return
		}
		s.handleException(pkt)
	}
}

// Listen registers a listening port delivering accept events to the
// given context with the given opaque listener id, using the configured
// default backlog.
func (s *Slowpath) Listen(port uint16, ctxID uint16, opaque uint64) error {
	_, err := s.ListenBacklog(port, ctxID, opaque, 0)
	return err
}

// ListenBacklog registers a listener with an explicit backlog bound
// (0 = the configured default). It returns the shared accept-queue
// depth gauge: the slow path increments it per delivered accept event,
// and the application side must decrement it as connections are
// accepted — the remaining headroom is what admission control grants
// new SYNs.
func (s *Slowpath) ListenBacklog(port uint16, ctxID uint16, opaque uint64, backlog int) (*atomic.Int32, error) {
	if s.dead.Load() {
		return nil, ErrDown
	}
	if backlog <= 0 {
		backlog = s.cfg.ListenBacklog
	}
	st := s.stripeFor(port)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.listeners[port]; dup {
		return nil, ErrPortInUse
	}
	l := &listener{port: port, ctxID: ctxID, opaque: opaque, backlog: backlog, pending: new(atomic.Int32)}
	// Mirror the registration into the engine-side shared table — the
	// authoritative record a warm-restarted slow path reconstructs
	// from. The Pending gauge object lives there too, so the depth the
	// application decrements survives restarts.
	if !s.eng.Listeners.Insert(&flowstate.ListenerEntry{
		Port: port, CtxID: ctxID, Opaque: opaque, Backlog: backlog, Pending: l.pending,
	}) {
		return nil, ErrPortInUse
	}
	st.listeners[port] = l
	return l.pending, nil
}

// Unlisten removes a listener.
func (s *Slowpath) Unlisten(port uint16) {
	st := s.stripeFor(port)
	st.mu.Lock()
	delete(st.listeners, port)
	st.mu.Unlock()
	s.eng.Listeners.Remove(port)
}

// Connect starts an active open toward the peer; the EvConnected event
// (carrying the flow) is posted to ctxID/opaque when the handshake
// completes. It returns the chosen local port.
func (s *Slowpath) Connect(peerIP protocol.IPv4, peerPort uint16, ctxID uint16, opaque uint64) (uint16, error) {
	if s.dead.Load() {
		return 0, ErrDown
	}
	if g := s.gov; g != nil {
		// Fast-fail admission: an app already at its flow quota gets
		// backpressure here, before any handshake traffic; the
		// authoritative charge still happens at flow installation.
		if err := g.CheckApp(uint32(ctxID)); err != nil {
			return 0, err
		}
	}
	localIP := s.eng.LocalIP()
	for i := 0; i < 65536; i++ {
		cand := uint16(32768 + s.portCtr.Add(1)%32768)
		key := protocol.FlowKey{LocalIP: localIP, LocalPort: cand, RemoteIP: peerIP, RemotePort: peerPort}
		st := s.stripeFor(cand)
		st.mu.Lock()
		if st.listeners[cand] != nil {
			st.mu.Unlock()
			continue
		}
		if _, busy := st.half[key]; busy || s.eng.Table.Lookup(key) != nil ||
			s.eng.TimeWait.Lookup(key) != nil {
			// A TIME_WAIT tuple is still quarantined: picking it would
			// let old duplicates of the previous incarnation land in the
			// new connection's window. Take the next ephemeral port.
			st.mu.Unlock()
			continue
		}
		// Half-open pool admission: a capped pool refuses the dial with
		// backpressure instead of letting a connect storm fill memory.
		// Acquire both checks the cap and charges the slot; dropHalf is
		// the matching release.
		if g := s.gov; g != nil {
			if err := g.Acquire(resource.PoolHalfOpen, 1); err != nil {
				st.mu.Unlock()
				return 0, err
			}
		}
		// Reserve the port under the stripe lock — no check-then-insert
		// window for a concurrent Dial to race into.
		iss := st.rng.Uint32()
		now := time.Now()
		st.half[key] = &halfOpen{
			key: key, iss: iss, ctxID: ctxID, opaque: opaque,
			rto: s.cfg.HandshakeRTO, deadline: now.Add(s.cfg.HandshakeRTO),
			born: now,
		}
		st.mu.Unlock()

		s.sendCtl(key, protocol.FlagSYN, iss, 0, true)
		s.record(key, telemetry.FESynTx, iss, 0, 0)
		return cand, nil
	}
	return 0, ErrNoPorts
}

// Close initiates connection teardown: once the transmit buffer drains,
// a FIN goes out; the flow is removed when both directions have closed.
// The FIN is retransmitted with exponential backoff by closeSweep until
// the peer acknowledges it (or the retry budget aborts the flow).
func (s *Slowpath) Close(f *flowstate.Flow) {
	go func() {
		// Wait for the transmit buffer to drain (bounded).
		deadline := time.Now().Add(5 * time.Second)
		for {
			f.Lock()
			drained := f.TxBuf.Used() == 0
			aborted := f.Aborted
			f.Unlock()
			if aborted {
				return // already torn down by failure handling
			}
			if drained || time.Now().After(deadline) {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		f.Lock()
		alreadyClosed := f.FinSent
		if !alreadyClosed {
			f.FinSent = true
		}
		seq := f.SeqNo
		ack := f.AckNo
		f.Unlock()
		if !alreadyClosed {
			s.sendCtlFlow(f, protocol.FlagFIN|protocol.FlagACK, seq, ack)
			recordFlow(f, telemetry.FEFinTx, seq, ack, 0, 0)
			rto := s.finRTO()
			s.mu.Lock()
			s.closing[f] = &closeEntry{finSeq: seq, rto: rto, deadline: time.Now().Add(rto)}
			s.mu.Unlock()
			s.chargeTimers(1)
		}
		// From here the closing entry owns the lifecycle: closeSweep
		// retransmits the FIN until acknowledged, then finishes the
		// close — straight removal for a passive closer (the peer's FIN
		// came first), TIME_WAIT quarantine for an active one, or a
		// bounded FIN_WAIT_2 wait if the peer never closes its side.
	}()
}

// finRTO is the initial FIN retransmission timeout: several control
// intervals, floored so loopback tests don't spin.
func (s *Slowpath) finRTO() time.Duration {
	rto := 4 * s.cfg.ControlInterval
	if rto < 20*time.Millisecond {
		rto = 20 * time.Millisecond
	}
	return rto
}

// sendCtl emits a control packet for a 4-tuple (no flow state yet).
func (s *Slowpath) sendCtl(key protocol.FlowKey, flags protocol.TCPFlags, seq, ack uint32, withMSS bool) {
	pkt := &protocol.Packet{
		SrcMAC: s.eng.LocalMAC(), DstMAC: protocol.MAC{},
		SrcIP: key.LocalIP, DstIP: key.RemoteIP,
		SrcPort: key.LocalPort, DstPort: key.RemotePort,
		Flags: flags, Seq: seq, Ack: ack,
		Window: uint16(s.cfg.RxBufSize / fastpath.WindowUnit),
		HasTS:  true, TSVal: s.eng.NowMicros(),
		ECN: protocol.ECNECT0,
	}
	if withMSS {
		pkt.MSSOpt = uint16(protocol.DefaultMSS)
	}
	s.output(pkt)
}

func (s *Slowpath) sendCtlFlow(f *flowstate.Flow, flags protocol.TCPFlags, seq, ack uint32) {
	pkt := &protocol.Packet{
		SrcMAC: s.eng.LocalMAC(), DstMAC: f.PeerMAC,
		SrcIP: f.LocalIP, DstIP: f.PeerIP,
		SrcPort: f.LocalPort, DstPort: f.PeerPort,
		Flags: flags, Seq: seq, Ack: ack,
		Window: uint16(f.RxBuf.Free() / fastpath.WindowUnit),
		HasTS:  true, TSVal: s.eng.NowMicros(),
		ECN: protocol.ECNECT0,
	}
	s.output(pkt)
}

// output hands a packet to the NIC via the engine's sender.
func (s *Slowpath) output(pkt *protocol.Packet) {
	s.eng.Output(pkt)
}

// ResizeBuffers grows a flow's payload buffers at runtime (the paper's
// §4.1 future-work management command). Sizes round up to powers of two;
// shrinking is not supported. After growing the receive buffer the fast
// path advertises the larger window on its next ack.
func (s *Slowpath) ResizeBuffers(f *flowstate.Flow, rxSize, txSize int) {
	f.Lock()
	if rxSize > f.RxBuf.Size() {
		rxSize = config.CeilPow2(rxSize)
		if s.growPayload(f, int64(rxSize-f.RxBuf.Size())) {
			f.RxBuf.Grow(rxSize)
		}
	}
	if txSize > f.TxBuf.Size() {
		txSize = config.CeilPow2(txSize)
		if s.growPayload(f, int64(txSize-f.TxBuf.Size())) {
			f.TxBuf.Grow(txSize)
		}
	}
	f.Unlock()
	// Tell the peer about the larger receive window promptly.
	s.eng.SendWindowUpdate(f)
	s.eng.KickFlow(f)
}

// growPayload asks the governor for extra payload-pool bytes before a
// buffer grows; a denied grow is skipped (the flow keeps its current
// buffer) rather than blowing past the pool cap. Reports whether the
// grow may proceed.
func (s *Slowpath) growPayload(f *flowstate.Flow, delta int64) bool {
	g := s.gov
	if g == nil {
		return true
	}
	return g.GrowPayload(uint32(f.Context), delta) == nil
}
