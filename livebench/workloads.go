package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	tas "repro"
)

const (
	msgSize    = 64       // echo request and reply bytes
	pipeDepth  = 16       // requests in flight per pipelined connection
	chunkSize  = 64 << 10 // bulk Write size
	sinkBuf    = 256 << 10
	bodies     = 16 // distinct seed-derived bulk chunk bodies
	opDeadline = 2 * time.Second

	srvAddr = "10.0.0.1"
	cliAddr = "10.0.0.2"
	port    = 7000
)

// workload is one traffic shape. Every workload is closed loop: each
// client goroutine waits for its operations to complete before issuing
// more.
type workload struct {
	name, why string
	op        string // what one operation is, for the printed report
	clients   int    // client goroutines, each on its own context
	dialed    bool   // each client dials one connection during set-up
	// matched: every data segment carries exactly one request or reply,
	// so the capture can time each RPC's stages.
	matched bool
	client  func(r *rig, id int, c *tas.Conn, log *opLog)
	serve   func(r *rig, c *tas.Conn, log *opLog)
}

var workloads = []*workload{
	{
		name: "echo", op: "64 B RPC",
		why:     "one connection, one 64 B request in flight: the unloaded latency chain through every layer, paid once per RPC",
		clients: 1, dialed: true, matched: true,
		client: func(r *rig, id int, c *tas.Conn, log *opLog) { rpcLoop(r, id, c, 1, log) },
		serve:  serveEcho,
	},
	{
		name: "pipelined", op: "64 B RPC",
		why:     "two connections with 16 x 64 B requests in flight each: per-call libtas cost and the context rings under load",
		clients: 2, dialed: true,
		client: func(r *rig, id int, c *tas.Conn, log *opLog) { rpcLoop(r, id, c, pipeDepth, log) },
		serve:  serveEcho,
	},
	{
		name: "bulk", op: "64 KiB chunk delivered",
		why:     "two one-way streams of 64 KiB writes into a hashing reader: per-byte copy, segmentation and ACK work",
		clients: 2, dialed: true,
		client: bulkSend,
		serve:  serveSink,
	},
	{
		name: "churn", op: "dial-echo-close cycle",
		why:     "two workers repeating dial, 64 B echo, close: handshake, teardown, TIME_WAIT and governor admission",
		clients: 2, matched: true,
		client: churnLoop,
		serve:  serveEcho,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stamp identifies a request or chunk: the client id in the top 16 bits
// and its sequence number below.
func stamp(id int, seq uint64) uint64 { return uint64(id)<<48 | seq }

// splitmix64 is the payload generator's mixing step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fill writes seed-derived bytes into b, keyed by k.
func fill(b []byte, seed int64, k uint64) {
	x := splitmix64(uint64(seed) ^ splitmix64(k))
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(b[i:], w[:])
	}
}

// fillMsg builds a request: its stamp, then seed-derived bytes.
func fillMsg(b []byte, seed int64, st uint64) {
	binary.LittleEndian.PutUint64(b, st)
	fill(b[8:], seed, st)
}

// writeFull writes p with the operation deadline, timing the call in
// traced rounds.
func writeFull(c *tas.Conn, p []byte, log *opLog) error {
	t0 := time.Now()
	_, err := c.WriteTimeout(p, opDeadline)
	log.timed(&log.writes, t0)
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// readFull fills p within one operation deadline. It returns io.EOF
// only when the stream ends before the first byte.
func readFull(c *tas.Conn, p []byte) error {
	deadline := time.Now().Add(opDeadline)
	for got := 0; got < len(p); {
		d := time.Until(deadline)
		if d <= 0 {
			return errors.New("read: deadline exceeded")
		}
		n, err := c.ReadTimeout(p[got:], d)
		got += n
		if err == io.EOF && got == 0 {
			return io.EOF
		}
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
	}
	return nil
}

// rpcLoop keeps depth requests in flight on c until the window ends,
// verifies every reply against its request byte for byte, then drains
// the outstanding replies and closes the connection.
func rpcLoop(r *rig, id int, c *tas.Conn, depth int, log *opLog) {
	defer c.Close()
	reqs := make([]byte, depth*msgSize)
	starts := make([]time.Time, depth)
	resp := make([]byte, msgSize)
	req := func(seq uint64) []byte {
		i := int(seq % uint64(depth))
		return reqs[i*msgSize : (i+1)*msgSize]
	}
	var sent, recvd uint64
	send := func() error {
		fillMsg(req(sent), r.seed, stamp(id, sent))
		starts[sent%uint64(depth)] = time.Now()
		sent++
		return writeFull(c, req(sent-1), log)
	}
	// abandon counts every outstanding request as failed once the
	// connection can no longer be trusted.
	abandon := func(err error) {
		now := time.Now()
		for ; recvd < sent; recvd++ {
			log.done(starts[recvd%uint64(depth)], now, err, 0)
			log.span(stamp(id, recvd), starts[recvd%uint64(depth)], now, err)
		}
	}
	for sent < uint64(depth) {
		if err := send(); err != nil {
			abandon(err)
			return
		}
	}
	for recvd < sent {
		err := readFull(c, resp)
		end := time.Now()
		want := req(recvd)
		if err == nil && !bytes.Equal(resp, want) {
			err = mismatchf("reply %d on client %d differs from its request", recvd, id)
		}
		if err != nil {
			abandon(err)
			return
		}
		log.done(starts[recvd%uint64(depth)], end, nil, 2*msgSize)
		log.span(stamp(id, recvd), starts[recvd%uint64(depth)], end, nil)
		recvd++
		if end.Before(log.win.end) {
			if err := send(); err != nil {
				abandon(err)
				return
			}
		}
	}
}

// serveEcho echoes 64 B messages until the peer closes.
func serveEcho(r *rig, c *tas.Conn, log *opLog) {
	defer c.Close()
	buf := make([]byte, msgSize)
	for {
		err := readFull(c, buf)
		if err == io.EOF {
			return
		}
		if err == nil {
			err = writeFull(c, buf, log)
		}
		if err != nil {
			r.serverError()
			return
		}
	}
}

// churnLoop repeats dial, one verified 64 B echo, and close on its own
// context until the window ends. A failed cycle is counted, never
// retried.
func churnLoop(r *rig, id int, _ *tas.Conn, log *opLog) {
	ctx := r.cctx[id]
	req := make([]byte, msgSize)
	resp := make([]byte, msgSize)
	for seq := uint64(0); time.Now().Before(log.win.end); seq++ {
		start := time.Now()
		err := churnCycle(r, ctx, stamp(id, seq), req, resp, log)
		log.done(start, time.Now(), err, 2*msgSize)
		if errors.Is(err, errMismatch) {
			return
		}
	}
}

func churnCycle(r *rig, ctx *tas.Context, st uint64, req, resp []byte, log *opLog) error {
	t0 := time.Now()
	c, err := ctx.DialTimeout(srvAddr, port, opDeadline)
	log.timed(&log.dials, t0)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	fillMsg(req, r.seed, st)
	t1 := time.Now()
	err = writeFull(c, req, log)
	if err == nil {
		err = readFull(c, resp)
	}
	if err == nil && !bytes.Equal(resp, req) {
		err = mismatchf("churn reply %#x differs from its request", st)
	}
	log.span(st, t1, time.Now(), err)
	t2 := time.Now()
	cerr := c.Close()
	log.timed(&log.closes, t2)
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("close: %w", cerr)
	}
	return nil
}

// bulkStream is what the sender of one bulk connection shares with its
// receiver: when each chunk's Write began, and how many chunks were
// fully written.
type bulkStream struct {
	mu      sync.Mutex
	starts  []time.Time
	written int
}

func (s *bulkStream) begin(t time.Time) {
	s.mu.Lock()
	s.starts = append(s.starts, t)
	s.mu.Unlock()
}

func (s *bulkStream) wrote() {
	s.mu.Lock()
	s.written++
	s.mu.Unlock()
}

func (s *bulkStream) start(k uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k >= uint64(len(s.starts)) {
		return time.Time{}, false
	}
	return s.starts[k], true
}

// bulkInput is the seed-derived content of the bulk streams: chunk k
// carries its stamp in its first 8 bytes and body k%bodies after it.
type bulkInput struct {
	bodies  [bodies][]byte
	digests [bodies][sha256.Size]byte
}

func newBulkInput(seed int64) *bulkInput {
	in := &bulkInput{}
	for i := range in.bodies {
		b := make([]byte, chunkSize)
		fill(b[8:], seed, uint64(1)<<63|uint64(i))
		in.bodies[i] = b
		in.digests[i] = sha256.Sum256(b[8:])
	}
	return in
}

// bulkSend streams 64 KiB chunks on c until the window ends. Each
// sender stamps its own copy of the bodies.
func bulkSend(r *rig, id int, c *tas.Conn, log *opLog) {
	defer c.Close()
	st := r.bulk[id]
	var own [bodies][]byte
	for i := range own {
		own[i] = bytes.Clone(r.bulkIn.bodies[i])
	}
	for k := uint64(0); time.Now().Before(log.win.end); k++ {
		chunk := own[k%bodies]
		binary.LittleEndian.PutUint64(chunk, stamp(id, k))
		t0 := time.Now()
		st.begin(t0)
		if err := writeFull(c, chunk, log); err != nil {
			log.done(t0, time.Now(), err, 0)
			return
		}
		st.wrote()
	}
}

// serveSink reads a bulk stream into a 256 KiB buffer, checks every
// chunk's stamp and SHA-256 against the sender's, records each chunk's
// delivery time, and discards the bytes.
func serveSink(r *rig, c *tas.Conn, log *opLog) {
	defer c.Close()
	buf := make([]byte, sinkBuf)
	h := sha256.New()
	var (
		st    *bulkStream
		id    int
		k     uint64 // chunk being received
		off   int    // bytes of chunk k received
		stmp  [8]byte
		fail  error
		recvd int
	)
	consume := func(p []byte) error {
		for len(p) > 0 {
			if off < 8 {
				n := copy(stmp[off:], p)
				off += n
				p = p[n:]
				if off < 8 {
					return nil
				}
				got := binary.LittleEndian.Uint64(stmp[:])
				if st == nil {
					id = int(got >> 48)
					if id >= len(r.bulk) {
						return mismatchf("bulk chunk names unknown stream %d", id)
					}
					st = r.bulk[id]
				}
				if got != stamp(id, k) {
					return mismatchf("bulk stream %d: chunk %d arrived as %#x", id, k, got)
				}
				h.Reset()
				continue
			}
			n := min(len(p), chunkSize-off)
			h.Write(p[:n])
			off += n
			p = p[n:]
			if off < chunkSize {
				continue
			}
			var sum [sha256.Size]byte
			h.Sum(sum[:0])
			if sum != r.bulkIn.digests[k%bodies] {
				return mismatchf("bulk stream %d: chunk %d SHA-256 differs from the sender's", id, k)
			}
			t0, ok := st.start(k)
			if !ok {
				return mismatchf("bulk stream %d: chunk %d arrived before it was written", id, k)
			}
			log.done(t0, time.Now(), nil, chunkSize)
			recvd++
			k++
			off = 0
		}
		return nil
	}
	for fail == nil {
		n, err := c.ReadTimeout(buf, opDeadline)
		if n > 0 {
			fail = consume(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil && fail == nil {
			fail = fmt.Errorf("read: %w", err)
		}
	}
	if fail == nil && st != nil {
		st.mu.Lock()
		written, begun := st.written, len(st.starts)
		st.mu.Unlock()
		if recvd < written || recvd > begun {
			fail = mismatchf("bulk stream %d: %d chunks received, %d written", id, recvd, written)
		}
	}
	if fail != nil {
		log.done(time.Now(), time.Now(), fail, 0)
		r.serverError()
	}
}
