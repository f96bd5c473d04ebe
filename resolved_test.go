package tas

// resolvedConfig returns the config a running service resolved from the
// one it was given, with the watermarks the governor runs with, and the
// initial rate (bytes/s) of the congestion controller each of its flows
// starts with.
func resolvedConfig(s *Service) (Config, float64) {
	c := s.cfg
	lim := s.gov.Limits()
	c.PressureEngagePct, c.PressureReleasePct = lim.EngagePct, lim.ReleasePct
	return c, c.Controller()().Rate()
}
