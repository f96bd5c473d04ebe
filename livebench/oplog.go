package main

import (
	"errors"
	"fmt"
	"time"
)

// window is the measured part of a round: operations that end inside
// [start, end) are counted; earlier ones are warm-up.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// errMismatch marks a correctness violation: a reply, chunk or stream
// that differs from what was sent. Any mismatch fails the run.
var errMismatch = errors.New("payload mismatch")

func mismatchf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, a...))
}

// rpcSpan is one request/reply exchange as the client saw it, in wall
// nanoseconds (the clock the fabric capture stamps packets with).
type rpcSpan struct {
	stamp      uint64
	start, end int64
	inWindow   bool
	failed     bool
}

// opLog collects the operations of one goroutine in one round. It is
// owned by that goroutine until the round ends.
type opLog struct {
	win    window
	traced bool

	lats     []uint32 // windowed latencies; failures are failedNS
	failed   int
	bytes    int64 // verified payload bytes of windowed operations
	firstErr error
	mismatch error

	// Traced rounds only: spans the benchmark records around its own
	// calls into the stack.
	spans         []rpcSpan
	writes        []uint32 // Conn.Write call durations
	dials, closes []uint32 // DialTimeout / Close call durations (churn)
}

// done records one operation that started at start and ended at end,
// carrying n verified payload bytes when err is nil.
func (l *opLog) done(start, end time.Time, err error, n int) {
	if err != nil {
		if l.firstErr == nil {
			l.firstErr = err
		}
		if errors.Is(err, errMismatch) && l.mismatch == nil {
			l.mismatch = err
		}
	}
	// An operation counts when it ends inside the window; a failure
	// also counts when it merely overlaps the window, so a deadline that
	// runs out after the window closes is not lost.
	overlaps := start.Before(l.win.end) && !end.Before(l.win.start)
	if !l.win.contains(end) && !(err != nil && overlaps) {
		return
	}
	if err != nil {
		l.lats = append(l.lats, failedNS)
		l.failed++
		return
	}
	l.lats = append(l.lats, toNS(end.Sub(start)))
	l.bytes += int64(n)
}

// span records a request/reply exchange for capture correlation.
func (l *opLog) span(stamp uint64, start, end time.Time, err error) {
	if l.traced {
		l.spans = append(l.spans, rpcSpan{stamp, start.UnixNano(), end.UnixNano(), l.win.contains(end), err != nil})
	}
}

// timed appends the duration of a call that started at t0 to dst when
// the round is traced and the call ended inside the window.
func (l *opLog) timed(dst *[]uint32, t0 time.Time) {
	if !l.traced {
		return
	}
	if now := time.Now(); l.win.contains(now) {
		*dst = append(*dst, toNS(now.Sub(t0)))
	}
}
