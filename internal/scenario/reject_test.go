package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	tas "repro"
)

// TestParseRejectsWhatServiceRejects: every service config the service
// constructor refuses, written as a scenario topology, must be refused
// by ParseSpec too — for the same cause — so a bad scenario fails at
// parse time instead of mid-run.
func TestParseRejectsWhatServiceRejects(t *testing.T) {
	cases := []struct {
		name     string
		cfg      tas.Config
		topology string
	}{
		{"inverted hysteresis",
			tas.Config{PressureEngagePct: 60, PressureReleasePct: 70},
			`"pressure_engage_pct":60,"pressure_release_pct":70`},
		{"equal watermarks",
			tas.Config{PressureEngagePct: 60, PressureReleasePct: 60},
			`"pressure_engage_pct":60,"pressure_release_pct":60`},
		{"engage above 100",
			tas.Config{PressureEngagePct: 140, PressureReleasePct: 55},
			`"pressure_engage_pct":140,"pressure_release_pct":55`},
		{"release unset under a set engage",
			tas.Config{PressureEngagePct: 80},
			`"pressure_engage_pct":80`},
		{"negative engage",
			tas.Config{PressureEngagePct: -5, PressureReleasePct: -10},
			`"pressure_engage_pct":-5,"pressure_release_pct":-10`},
		{"app flow quota over pool",
			tas.Config{MaxFlows: 10, AppMaxFlows: 11},
			`"max_flows":10,"app_max_flows":11`},
		{"app payload quota over pool",
			tas.Config{MaxPayloadBytes: 1 << 20, AppMaxPayloadBytes: 2 << 20},
			`"max_payload_bytes":1048576,"app_max_payload_bytes":2097152`},
		{"negative flow pool",
			tas.Config{MaxFlows: -1},
			`"max_flows":-1`},
		{"negative app flow quota",
			tas.Config{AppMaxFlows: -1},
			`"app_max_flows":-1`},
		{"negative payload pool",
			tas.Config{MaxPayloadBytes: -1},
			`"max_payload_bytes":-1`},
		{"negative half-open pool",
			tas.Config{MaxHalfOpen: -1},
			`"max_half_open":-1`},
		{"unknown congestion control",
			tas.Config{CongestionControl: "bogus"},
			`"congestion_control":"bogus"`},
	}
	fab := tas.NewFabric()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := fab.NewService(fmt.Sprintf("10.0.8.%d", i+1), tc.cfg)
			if err == nil {
				svc.Close()
				t.Fatal("NewService accepted the config")
			}
			// The cause is the innermost error the service reports.
			cause := err
			for u := errors.Unwrap(cause); u != nil; u = errors.Unwrap(cause) {
				cause = u
			}
			spec := `{"name":"x","workload":{"kind":"rpc"},"topology":{` + tc.topology + `}}`
			_, perr := ParseSpec([]byte(spec))
			if perr == nil {
				t.Fatalf("ParseSpec accepted a topology NewService rejects (%v)", err)
			}
			if !errors.Is(perr, ErrBadSpec) {
				t.Errorf("ParseSpec error %v is not ErrBadSpec", perr)
			}
			if !strings.Contains(perr.Error(), cause.Error()) {
				t.Errorf("ParseSpec error %q does not carry the service's cause %q", perr, cause)
			}
		})
	}
}
