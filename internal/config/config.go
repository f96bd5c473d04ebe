// Package config holds the one configuration of a TAS service: the fast
// path, the slow path and libtas are started and tuned together, so they
// read the same Config. SetDefaults chooses every default the service
// resolves into the Config, Validate is the only place a config is
// rejected, and Limits the only place the resource governor's capacities
// are derived. Three defaults stay with the packages that own the
// mechanism and are left zero here: the challenge-ACK rate
// (ChallengeAckPerSec 0 = 100/s, tcp.NewAckLimiter), the degradation
// watermarks (PressureEngagePct/PressureReleasePct 0 = 70/55,
// resource.Limits) and the SYN-cookie key rotation
// (tcp.DefaultCookieRotate, not configurable).
package config

import (
	"fmt"
	"time"

	"repro/internal/congestion"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// Config parameterizes one TAS service instance.
type Config struct {
	// FastPathCores is the maximum number of fast-path cores (default
	// 2). The slow path scales the active count with load unless
	// DisableCoreScaling is set.
	FastPathCores int

	// RxBufSize / TxBufSize are the fixed per-connection payload buffer
	// sizes in bytes (powers of two; default 256 KiB).
	RxBufSize, TxBufSize int

	// CongestionControl selects the slow-path policy: "dctcp" (rate-
	// based DCTCP, the paper's default), "timely", or "none" (no rate
	// enforcement). Default "dctcp".
	CongestionControl string

	// ControlInterval is the slow-path control loop period (default
	// 1ms).
	ControlInterval time.Duration

	// LinkRateBps calibrates congestion control (default 40 Gbps, the
	// paper's server NIC).
	LinkRateBps float64

	// DisableCoreScaling pins the fast path at FastPathCores.
	DisableCoreScaling bool

	// DisableOoo turns off the fast path's one-interval out-of-order
	// buffering ("TAS simple recovery", Figure 7's ablation).
	DisableOoo bool

	// HandshakeRTO is the initial SYN / SYN-ACK retransmission timeout;
	// it doubles per unanswered attempt (default 250ms). Lower it in
	// fault-injection tests to bound handshake failure detection.
	HandshakeRTO time.Duration

	// HandshakeRetries caps handshake retransmissions before a connect
	// fails with a timeout error (default 3).
	HandshakeRetries int

	// MaxRetransmits caps consecutive unproductive retransmission
	// timeouts on an established flow before it is aborted: RST to the
	// peer and ErrReset to the application (default 6).
	MaxRetransmits int

	// PersistRTO is the initial persist-timer interval: when the peer
	// advertises a zero receive window while data is pending, the slow
	// path probes with 1-byte window probes starting at this interval and
	// backing off exponentially (default 200ms).
	PersistRTO time.Duration

	// MaxPersistProbes caps consecutive unanswered zero-window probes
	// before the flow is declared dead and aborted with a peer-dead error
	// (default 8). A probe is "answered" whenever the peer reopens its
	// window; mere duplicate zero-window ACKs keep the count rising.
	MaxPersistProbes int

	// KeepaliveTime enables TCP keepalives: an established flow idle in
	// both directions for this long gets liveness probes. Zero disables
	// keepalives (the default — idle connections are legitimate).
	KeepaliveTime time.Duration

	// KeepaliveInterval is the spacing between successive keepalive
	// probes once the idle threshold has passed (default KeepaliveTime/4,
	// floored at 10ms).
	KeepaliveInterval time.Duration

	// KeepaliveProbes is how many unanswered keepalive probes declare the
	// peer dead: the flow is aborted (RST best-effort) and every resource
	// it held is reclaimed (default 3).
	KeepaliveProbes int

	// FinWait2Timeout bounds FIN_WAIT_2: after our FIN is acknowledged,
	// the peer has this long to send its own FIN before the flow is
	// quietly reclaimed (default 5s). A crashed peer that acked the FIN
	// but never closes would otherwise pin the flow forever.
	FinWait2Timeout time.Duration

	// TimeWaitDuration is the 2MSL quarantine on the active closer's
	// 4-tuple (default 1s here — scaled for an in-process fabric). While
	// quarantined, old duplicate segments get the RFC 793 re-ACK and the
	// tuple is not picked for new outbound connections; a new SYN with a
	// sequence number above the quarantined flow's final sequence may
	// reuse the tuple early (RFC 6191).
	TimeWaitDuration time.Duration

	// AppTimeout is how long an application context may go without a
	// heartbeat before the slow path declares the app dead and reclaims
	// everything it held: flows (RST to peers), listen ports, context
	// slot, payload buffers. Default 30s; negative disables reaping.
	AppTimeout time.Duration

	// ListenBacklog bounds per-listener admission: half-open handshakes
	// plus not-yet-accepted connections. SYNs beyond it are shed
	// (dropped silently, so well-behaved peers retry). Default 128.
	ListenBacklog int

	// SynCookies selects the SYN-cookie mode: "" (auto — engage per
	// listener while half-open occupancy or SYN arrival rate indicates
	// a flood), "always" (every handshake stateless), or "off". Under
	// cookies the SYN-ACK's initial sequence number is a keyed MAC over
	// the 4-tuple, so a flood costs the slow path no memory and the
	// completing ACK alone reconstructs the connection.
	SynCookies string

	// ChallengeAckPerSec bounds RFC 5961 challenge ACKs per second
	// across the whole service (0 = default 100; negative disables
	// challenge ACKs entirely). Challenge ACKs answer in-window-but-
	// inexact RSTs and SYNs on established connections.
	ChallengeAckPerSec int

	// HandshakeStripes is the number of lock stripes sharding the
	// slow path's listener and half-open tables (default 16, rounded up
	// to a power of two). More stripes mean a SYN flood on one port
	// contends with less unrelated connection setup.
	HandshakeStripes int

	// SlowPathTimeout is how long the slow-path heartbeat may go stale
	// before the fast path enters degraded mode: established flows keep
	// transferring, but new SYNs are shed and Dial/Listen fail fast
	// with ErrSlowPathDown until Service.Restart recovers the control
	// plane. Default 1s; negative disables the watchdog.
	SlowPathTimeout time.Duration

	// CoreTimeout is how long a fast-path core's per-iteration heartbeat
	// may go without advancing before the slow path declares the core
	// failed: its RSS buckets are rewritten to surviving cores (and no
	// scale event ever steers back to it), its flows are migrated —
	// state re-adopted, retransmission re-armed, TX kicked — and packets
	// stranded in its queues are requeued. A revived core
	// (Service.ReviveCore) is folded back in after it proves clean
	// heartbeats. Default 500ms; negative disables the core watchdog.
	// Values below 250ms are floored there: even an idle healthy core
	// only advances its counter every blocked-wakeup period (~100ms).
	CoreTimeout time.Duration

	// Telemetry opts into the observability subsystem: a unified metrics
	// registry (Service.Metrics), a per-flow flight recorder, and
	// per-core cycle accounting. Zero value = off, leaving only
	// nil-pointer checks on the hot paths.
	Telemetry telemetry.Config

	// Resource-governor capacities. Every finite pool is accounted by
	// the unified governor regardless; a zero capacity leaves that pool
	// uncapped (accounted but never denied, contributing no pressure).
	// When capped, admission beyond the capacity fails with
	// backpressure (see ErrBackpressure) and occupancy drives the
	// degradation ladder: SYN cookies engage at PressureEngagePct of
	// the hottest pool, then SYN shedding, TX-grant clamping, and
	// LRU idle-flow reclamation as pressure keeps rising.
	MaxPayloadBytes  int64 // total payload-buffer bytes across all flows
	MaxFlows         int   // established flow-table entries
	MaxHalfOpen      int   // half-open handshake slots
	MaxContexts      int   // registered application contexts
	MaxTimers        int   // pending timer entries (FIN/closing sweeps)
	MaxAcceptBacklog int   // not-yet-accepted connections across listeners
	MaxTimeWait      int   // TIME_WAIT quarantine entries (oldest evicted past cap)

	// Per-app quotas (0 = none). A quota must not exceed the matching
	// global capacity when both are set; NewService rejects such
	// configs.
	AppMaxFlows        int
	AppMaxPayloadBytes int64

	// PressureEngagePct / PressureReleasePct are the degradation
	// ladder's hysteresis watermarks in percent of the hottest capped
	// pool (defaults 70/55). Release must be strictly below engage;
	// NewService rejects inverted or out-of-range pairs.
	PressureEngagePct  int
	PressureReleasePct int

	// IdleReclaimAge is how long a flow must sit with no packet or
	// application activity before the ladder's last rung may reclaim it
	// (default 1s). ReclaimBatch bounds reclaims per control tick
	// (default 32).
	IdleReclaimAge time.Duration
	ReclaimBatch   int
}

// SetDefaults fills every unset (zero) field with its default, in place.
// Negative SlowPathTimeout, CoreTimeout and AppTimeout mean "off" and
// are kept, so every layer reads a positive value as on and anything
// else as off. It is idempotent: the service applies it, and each layer
// applies it again to the copy it keeps.
func (c *Config) SetDefaults() {
	if c.FastPathCores <= 0 {
		c.FastPathCores = 2
	}
	if c.RxBufSize <= 0 {
		c.RxBufSize = 256 << 10
	}
	if c.TxBufSize <= 0 {
		c.TxBufSize = 256 << 10
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = time.Millisecond
	}
	if c.LinkRateBps <= 0 {
		c.LinkRateBps = 40e9
	}
	if c.HandshakeRTO <= 0 {
		c.HandshakeRTO = 250 * time.Millisecond
	}
	if c.HandshakeRetries <= 0 {
		c.HandshakeRetries = 3
	}
	if c.MaxRetransmits <= 0 {
		c.MaxRetransmits = 6
	}
	if c.PersistRTO <= 0 {
		c.PersistRTO = 200 * time.Millisecond
	}
	if c.MaxPersistProbes <= 0 {
		c.MaxPersistProbes = 8
	}
	// KeepaliveTime stays zero unless set: keepalives are opt-in.
	if c.KeepaliveTime > 0 && c.KeepaliveInterval <= 0 {
		c.KeepaliveInterval = max(c.KeepaliveTime/4, 10*time.Millisecond)
	}
	if c.KeepaliveProbes <= 0 {
		c.KeepaliveProbes = 3
	}
	if c.FinWait2Timeout <= 0 {
		c.FinWait2Timeout = 5 * time.Second
	}
	if c.TimeWaitDuration <= 0 {
		c.TimeWaitDuration = time.Second
	}
	if c.AppTimeout == 0 {
		c.AppTimeout = 30 * time.Second
	}
	if c.ListenBacklog <= 0 {
		c.ListenBacklog = 128
	}
	if c.HandshakeStripes <= 0 {
		c.HandshakeStripes = 16
	}
	c.HandshakeStripes = CeilPow2(c.HandshakeStripes)
	if c.SlowPathTimeout == 0 {
		c.SlowPathTimeout = time.Second
	}
	switch {
	case c.CoreTimeout == 0:
		c.CoreTimeout = 500 * time.Millisecond
	case c.CoreTimeout > 0 && c.CoreTimeout < 250*time.Millisecond:
		c.CoreTimeout = 250 * time.Millisecond
	}
	if c.IdleReclaimAge <= 0 {
		c.IdleReclaimAge = time.Second
	}
	if c.ReclaimBatch <= 0 {
		c.ReclaimBatch = 32
	}
}

// CeilPow2 rounds v up to a power of two (1 for v <= 1).
func CeilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Validate reports why a service cannot start with c: resource limits
// the governor rejects, or a CongestionControl no controller answers to.
func (c *Config) Validate() error {
	if err := c.Limits().Validate(); err != nil {
		return fmt.Errorf("tas: invalid resource limits: %w", err)
	}
	if c.Controller() == nil {
		return fmt.Errorf("tas: unknown congestion control %q", c.CongestionControl)
	}
	return nil
}

// Limits returns the resource governor's capacities, quotas and
// watermarks.
func (c *Config) Limits() resource.Limits {
	return resource.Limits{
		PayloadBytes:    c.MaxPayloadBytes,
		Flows:           int64(c.MaxFlows),
		HalfOpen:        int64(c.MaxHalfOpen),
		Contexts:        int64(c.MaxContexts),
		Timers:          int64(c.MaxTimers),
		Accept:          int64(c.MaxAcceptBacklog),
		TimeWait:        int64(c.MaxTimeWait),
		AppFlows:        int64(c.AppMaxFlows),
		AppPayloadBytes: c.AppMaxPayloadBytes,
		EngagePct:       c.PressureEngagePct,
		ReleasePct:      c.PressureReleasePct,
	}
}

// Controller returns the factory for the per-flow congestion controller
// that CongestionControl names, calibrated to LinkRateBps, or nil for an
// unknown name. Rate-based controllers start at a tenth of line rate:
// the in-process fabric has no congestion to probe for. The rates are
// only meaningful once SetDefaults has resolved LinkRateBps.
func (c *Config) Controller() func() congestion.RateController {
	link := congestion.DefaultConfig(c.LinkRateBps)
	rated := link
	rated.InitRate = c.LinkRateBps / 8 / 10
	switch c.CongestionControl {
	case "", "dctcp":
		return func() congestion.RateController { return congestion.NewRateDCTCP(rated) }
	case "timely":
		return func() congestion.RateController { return congestion.NewTIMELY(rated) }
	case "dctcp-window":
		// Window-based DCTCP behind the rate-bucket enforcement (§3.2:
		// TAS supports both rate- and window-based control).
		return func() congestion.RateController {
			return congestion.NewRateFromWindow(congestion.NewWindowDCTCP(protocol.DefaultMSS, 2<<20), link)
		}
	case "none":
		return func() congestion.RateController { return unlimited{} }
	}
	return nil
}

// unlimited is the "none" congestion controller: no rate enforcement.
type unlimited struct{}

func (unlimited) Name() string                       { return "none" }
func (unlimited) Update(congestion.Feedback) float64 { return 0 }
func (unlimited) Rate() float64                      { return 0 }
