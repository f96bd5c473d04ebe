package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	tas "repro"
)

// capture is the io.Writer handed to Fabric.CaptureTo. It parses the
// pcap stream record by record as it arrives and keeps only what the
// per-layer report needs: packet counts and, when keyed, the capture
// time of every request and reply segment, found by the stamp each
// 64 B request carries in its first 8 bytes.
type capture struct {
	srvIP uint32
	port  uint16
	keyed bool // correlate segments with requests (one request per segment)

	mu      sync.Mutex
	buf     []byte // bytes of an incomplete record
	started bool   // pcap global header consumed
	err     error

	pkts, dataSegs int
	req, rep       map[uint64]seen
	stray          int // keyed: data segments that are not a 64 B request or reply
}

// seen is when a stamped segment first crossed the fabric, and how
// many times it did.
type seen struct {
	ts int64
	n  int
}

const (
	pcapHeaderLen = 24
	pcapRecordLen = 16
	pcapMagic     = 0xa1b2c3d4
)

func newCapture(srvAddr string, port uint16, keyed bool) *capture {
	ip, err := tas.ParseIP(srvAddr)
	if err != nil {
		panic(err) // srvAddr is a constant
	}
	return &capture{srvIP: uint32(ip), port: port, keyed: keyed,
		req: map[uint64]seen{}, rep: map[uint64]seen{}}
}

func (c *capture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	c.buf = append(c.buf, p...)
	off := 0
	if !c.started {
		if len(c.buf) < pcapHeaderLen {
			return len(p), nil
		}
		if binary.LittleEndian.Uint32(c.buf) != pcapMagic {
			c.err = errors.New("capture: not a little-endian pcap stream")
			return 0, c.err
		}
		c.started = true
		off = pcapHeaderLen
	}
	for len(c.buf)-off >= pcapRecordLen {
		rec := c.buf[off:]
		n := int(binary.LittleEndian.Uint32(rec[8:]))
		if len(rec)-pcapRecordLen < n {
			break
		}
		ts := int64(binary.LittleEndian.Uint32(rec[0:]))*1e9 + int64(binary.LittleEndian.Uint32(rec[4:]))*1e3
		if err := c.packet(ts, rec[pcapRecordLen:pcapRecordLen+n]); err != nil {
			c.err = err
			return 0, err
		}
		off += pcapRecordLen + n
	}
	c.buf = append(c.buf[:0], c.buf[off:]...)
	return len(p), nil
}

// packet accounts one Ethernet/IPv4/TCP frame captured at ts.
func (c *capture) packet(ts int64, f []byte) error {
	be := binary.BigEndian
	if len(f) < 14+20 || be.Uint16(f[12:]) != 0x0800 {
		return fmt.Errorf("capture: frame %d is not IPv4", c.pkts)
	}
	ip := f[14:]
	ihl, total := int(ip[0]&0xf)*4, int(be.Uint16(ip[2:]))
	if ip[9] != 6 || ihl < 20 || total > len(ip) || total < ihl+20 {
		return fmt.Errorf("capture: frame %d is not a well-formed TCP segment", c.pkts)
	}
	tcp := ip[ihl:total]
	doff := int(tcp[12]>>4) * 4
	if doff < 20 || doff > len(tcp) {
		return fmt.Errorf("capture: frame %d has a bad TCP header length", c.pkts)
	}
	c.pkts++
	payload := tcp[doff:]
	if len(payload) == 0 {
		return nil
	}
	c.dataSegs++
	if !c.keyed {
		return nil
	}
	src, dst := be.Uint32(ip[12:]), be.Uint32(ip[16:])
	sport, dport := be.Uint16(tcp[0:]), be.Uint16(tcp[2:])
	var m map[uint64]seen
	switch {
	case dst == c.srvIP && dport == c.port:
		m = c.req
	case src == c.srvIP && sport == c.port:
		m = c.rep
	}
	if m == nil || len(payload) != msgSize {
		c.stray++
		return nil
	}
	st := binary.LittleEndian.Uint64(payload)
	s := m[st]
	if s.n == 0 {
		s.ts = ts
	}
	s.n++
	m[st] = s
	return nil
}

// stages is the capture's split of traced RPCs, in microseconds, over
// the spans that ended inside the window.
type stages struct {
	clientTx, serverTurn, clientRx []float64

	// unmatched counts spans without exactly one request and one reply
	// segment, plus segments no span accounts for.
	unmatched int
	// misordered counts matched spans whose segments do not lie in
	// order inside the span (allowing for the capture's 1 µs clock).
	// Where none do, the three stages add up to the RPC time exactly.
	misordered int
}

// correlate matches the client's spans with the captured segments.
func (c *capture) correlate(spans []rpcSpan) stages {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st stages
	used := 0
	for _, s := range spans {
		q, p := c.req[s.stamp], c.rep[s.stamp]
		if s.failed {
			// A failed exchange is already counted as a failed
			// operation; whatever it put on the wire is its own.
			used += q.n + p.n
			continue
		}
		if q.n != 1 || p.n != 1 {
			st.unmatched++
			continue
		}
		used += 2
		const slack = 1000 // ns: pcap stamps are truncated to whole µs
		if q.ts < s.start-slack || p.ts < q.ts || p.ts > s.end {
			st.misordered++
			continue
		}
		if !s.inWindow {
			continue
		}
		st.clientTx = append(st.clientTx, float64(q.ts-s.start)/1e3)
		st.serverTurn = append(st.serverTurn, float64(p.ts-q.ts)/1e3)
		st.clientRx = append(st.clientRx, float64(s.end-p.ts)/1e3)
	}
	segs := 0
	for _, m := range []map[uint64]seen{c.req, c.rep} {
		for _, s := range m {
			segs += s.n
		}
	}
	st.unmatched += segs - used + c.stray
	return st
}

// counts returns the packets and data-carrying segments captured.
func (c *capture) counts() (pkts, dataSegs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pkts, c.dataSegs
}
