package fastpath

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEventQueueTwoProducers is the race-regression test for a
// context's event queue: fast-path core 0 posts EvData/EvTxAcked onto
// the core-0 queue while the slow path posts EvAccepted, EvConnected,
// EvClosed and EvAborted onto the same queue. Every event of both
// producers must reach the one poller exactly once and in each
// producer's order, and under -race the queue must not race.
func TestEventQueueTwoProducers(t *testing.T) {
	const perProducer = 200_000
	ctx := NewContext(0, 1, 256)
	producers := []EventKind{EvData, EvAccepted}

	var wg sync.WaitGroup
	for _, kind := range producers {
		wg.Add(1)
		go func(kind EventKind) {
			defer wg.Done()
			for i := 0; i < perProducer; {
				if ctx.PostEvent(0, Event{Kind: kind, Opaque: uint64(i)}) {
					i++
				} else {
					runtime.Gosched() // full: the poller is behind
				}
			}
		}(kind)
	}

	next := map[EventKind]uint64{}
	got := 0
	deadline := time.Now().Add(30 * time.Second)
	var evs [64]Event
	for got < len(producers)*perProducer {
		if time.Now().After(deadline) {
			t.Fatalf("polled %d of %d events before the deadline: events lost or the queue wedged",
				got, len(producers)*perProducer)
		}
		n := ctx.PollEvents(evs[:])
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for _, ev := range evs[:n] {
			if ev.Opaque != next[ev.Kind] {
				t.Fatalf("%v event %d arrived when %d was next", ev.Kind, ev.Opaque, next[ev.Kind])
			}
			next[ev.Kind]++
		}
		got += n
	}
	wg.Wait()
	if n := ctx.PollEvents(evs[:]); n != 0 {
		t.Fatalf("%d events beyond the %d posted", n, len(producers)*perProducer)
	}
}
