package tas

import (
	"fmt"
	"testing"
	"time"
)

// TestServiceResolvedDefaults pins every value a service resolves from
// the Config it is given: the defaults for unset fields, the rounding
// and floors applied to set ones, the negative values that turn a
// watchdog or limiter off, and the initial rate of each flow's
// congestion controller.
func TestServiceResolvedDefaults(t *testing.T) {
	defaults := func(edit func(*Config)) Config {
		c := Config{
			FastPathCores:      2,
			RxBufSize:          256 << 10,
			TxBufSize:          256 << 10,
			ControlInterval:    time.Millisecond,
			LinkRateBps:        40e9,
			HandshakeRTO:       250 * time.Millisecond,
			HandshakeRetries:   3,
			MaxRetransmits:     6,
			PersistRTO:         200 * time.Millisecond,
			MaxPersistProbes:   8,
			KeepaliveProbes:    3,
			FinWait2Timeout:    5 * time.Second,
			TimeWaitDuration:   time.Second,
			AppTimeout:         30 * time.Second,
			ListenBacklog:      128,
			HandshakeStripes:   16,
			SlowPathTimeout:    time.Second,
			CoreTimeout:        500 * time.Millisecond,
			PressureEngagePct:  70,
			PressureReleasePct: 55,
			IdleReclaimAge:     time.Second,
			ReclaimBatch:       32,
		}
		if edit != nil {
			edit(&c)
		}
		return c
	}
	cases := []struct {
		name     string
		in       Config
		want     Config
		initRate float64 // bytes/s
	}{
		{"zero", Config{}, defaults(nil), 40e9 / 80},
		{
			"off",
			Config{SlowPathTimeout: -1, CoreTimeout: -1, AppTimeout: -1, ChallengeAckPerSec: -1},
			defaults(func(c *Config) {
				c.SlowPathTimeout, c.CoreTimeout, c.AppTimeout, c.ChallengeAckPerSec = -1, -1, -1, -1
			}),
			40e9 / 80,
		},
		{
			"rounded and floored",
			Config{HandshakeStripes: 5, CoreTimeout: 100 * time.Millisecond, KeepaliveTime: 20 * time.Millisecond},
			defaults(func(c *Config) {
				c.HandshakeStripes = 8
				c.CoreTimeout = 250 * time.Millisecond
				c.KeepaliveTime, c.KeepaliveInterval = 20*time.Millisecond, 10*time.Millisecond
			}),
			40e9 / 80,
		},
		{
			"kept",
			Config{
				FastPathCores: 3, DisableCoreScaling: true, DisableOoo: true,
				RxBufSize: 64 << 10, TxBufSize: 128 << 10, ControlInterval: 2 * time.Millisecond,
				CongestionControl: "timely", LinkRateBps: 10e9,
				HandshakeRTO: 25 * time.Millisecond, HandshakeRetries: 7, MaxRetransmits: 12,
				PersistRTO: 20 * time.Millisecond, MaxPersistProbes: 4,
				KeepaliveTime: time.Second, KeepaliveProbes: 5,
				FinWait2Timeout: time.Second, TimeWaitDuration: 100 * time.Millisecond,
				AppTimeout: time.Second, ListenBacklog: 32, SynCookies: "always",
				ChallengeAckPerSec: 10, HandshakeStripes: 4,
				SlowPathTimeout: 150 * time.Millisecond, CoreTimeout: 400 * time.Millisecond,
				MaxPayloadBytes: 1 << 20, MaxFlows: 40, MaxHalfOpen: 8, AppMaxFlows: 20,
				PressureEngagePct: 80, PressureReleasePct: 60,
				IdleReclaimAge: 50 * time.Millisecond, ReclaimBatch: 4,
			},
			Config{
				FastPathCores: 3, DisableCoreScaling: true, DisableOoo: true,
				RxBufSize: 64 << 10, TxBufSize: 128 << 10, ControlInterval: 2 * time.Millisecond,
				CongestionControl: "timely", LinkRateBps: 10e9,
				HandshakeRTO: 25 * time.Millisecond, HandshakeRetries: 7, MaxRetransmits: 12,
				PersistRTO: 20 * time.Millisecond, MaxPersistProbes: 4,
				KeepaliveTime: time.Second, KeepaliveInterval: 250 * time.Millisecond, KeepaliveProbes: 5,
				FinWait2Timeout: time.Second, TimeWaitDuration: 100 * time.Millisecond,
				AppTimeout: time.Second, ListenBacklog: 32, SynCookies: "always",
				ChallengeAckPerSec: 10, HandshakeStripes: 4,
				SlowPathTimeout: 150 * time.Millisecond, CoreTimeout: 400 * time.Millisecond,
				MaxPayloadBytes: 1 << 20, MaxFlows: 40, MaxHalfOpen: 8, AppMaxFlows: 20,
				PressureEngagePct: 80, PressureReleasePct: 60,
				IdleReclaimAge: 50 * time.Millisecond, ReclaimBatch: 4,
			},
			10e9 / 80,
		},
		{"no rate limit", Config{CongestionControl: "none"}, defaults(func(c *Config) { c.CongestionControl = "none" }), 0},
	}
	fab := NewFabric()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := fab.NewService(fmt.Sprintf("10.0.7.%d", i+1), tc.in)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got, rate := resolvedConfig(s)
			if got != tc.want {
				t.Errorf("resolved config:\n got %+v\nwant %+v", got, tc.want)
			}
			if rate != tc.initRate {
				t.Errorf("congestion-control initial rate = %v B/s, want %v", rate, tc.initRate)
			}
			if off := tc.in.ChallengeAckPerSec < 0; (s.Engine().Challenge == nil) != off {
				t.Errorf("challenge-ACK limiter present = %v, want %v", s.Engine().Challenge != nil, !off)
			}
		})
	}
}
