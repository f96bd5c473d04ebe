package config

import (
	"strings"
	"testing"
	"time"
)

// TestSetDefaultsIdempotent: the service resolves a config and each
// layer resolves its copy again, so a second pass must change nothing —
// including the rounded, floored and derived values and the negative
// "off" values.
func TestSetDefaultsIdempotent(t *testing.T) {
	for _, c := range []Config{
		{},
		{HandshakeStripes: 5, CoreTimeout: 100 * time.Millisecond, KeepaliveTime: 20 * time.Millisecond},
		{SlowPathTimeout: -1, CoreTimeout: -1, AppTimeout: -1, ChallengeAckPerSec: -1},
	} {
		once := c
		once.SetDefaults()
		twice := once
		twice.SetDefaults()
		if once != twice {
			t.Errorf("second SetDefaults changed the config:\n once %+v\ntwice %+v", once, twice)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	for in, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 5: 8, 16: 16, 17: 32} {
		if got := CeilPow2(in); got != want {
			t.Errorf("CeilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string // "" = valid
	}{
		{Config{}, ""},
		{Config{CongestionControl: "timely"}, ""},
		{Config{CongestionControl: "bogus"}, `tas: unknown congestion control "bogus"`},
		{Config{PressureEngagePct: 50, PressureReleasePct: 60}, "tas: invalid resource limits: resource: inverted hysteresis"},
		{Config{MaxFlows: 5, AppMaxFlows: 6}, "tas: invalid resource limits: resource: per-app flows quota"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc.cfg, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%+v: error %v, want prefix %q", tc.cfg, err, tc.want)
		}
	}
}
