package main

import (
	"encoding/binary"
	"strings"
	"testing"
)

// synthetic pcap stream: classic little-endian pcap of Ethernet/IPv4/TCP
// frames, encoded here independently of the stack's own writer.

type synSeg struct {
	tsNS         int64
	toServer     bool
	flags        byte
	payload      []byte
	srcIP, dstIP uint32 // zero: the benchmark's client/server pair
	sport, dport uint16
}

const (
	synSrv = 0x0a000001 // 10.0.0.1
	synCli = 0x0a000002 // 10.0.0.2
)

func synFrame(s synSeg) []byte {
	src, dst, sport, dport := uint32(synCli), uint32(synSrv), uint16(40000), uint16(port)
	if !s.toServer {
		src, dst, sport, dport = dst, src, dport, sport
	}
	if s.srcIP != 0 {
		src, dst, sport, dport = s.srcIP, s.dstIP, s.sport, s.dport
	}
	be := binary.BigEndian
	b := make([]byte, 14+20+20+len(s.payload))
	be.PutUint16(b[12:], 0x0800)
	ip := b[14:]
	ip[0] = 0x45
	be.PutUint16(ip[2:], uint16(40+len(s.payload)))
	ip[9] = 6
	be.PutUint32(ip[12:], src)
	be.PutUint32(ip[16:], dst)
	tcp := ip[20:]
	be.PutUint16(tcp[0:], sport)
	be.PutUint16(tcp[2:], dport)
	tcp[12] = 5 << 4
	tcp[13] = s.flags
	copy(tcp[20:], s.payload)
	return b
}

func synStream(segs []synSeg) []byte {
	le := binary.LittleEndian
	out := make([]byte, 24)
	le.PutUint32(out[0:], pcapMagic)
	le.PutUint16(out[4:], 2)
	le.PutUint16(out[6:], 4)
	le.PutUint32(out[16:], 65535)
	le.PutUint32(out[20:], 1)
	for _, s := range segs {
		f := synFrame(s)
		var rec [16]byte
		le.PutUint32(rec[0:], uint32(s.tsNS/1e9))
		le.PutUint32(rec[4:], uint32(s.tsNS%1e9/1e3))
		le.PutUint32(rec[8:], uint32(len(f)))
		le.PutUint32(rec[12:], uint32(len(f)))
		out = append(out, rec[:]...)
		out = append(out, f...)
	}
	return out
}

func synMsg(st uint64) []byte {
	b := make([]byte, msgSize)
	fillMsg(b, 7, st)
	return b
}

// feed writes the stream in small uneven pieces, so records and headers
// straddle Write calls.
func feed(t *testing.T, c *capture, stream []byte) {
	t.Helper()
	for i, step := 0, 1; i < len(stream); step = step%13 + 3 {
		j := min(i+step, len(stream))
		if n, err := c.Write(stream[i:j]); err != nil || n != j-i {
			t.Fatalf("Write(%d bytes) = %d, %v", j-i, n, err)
		}
		i = j
	}
}

const base = int64(1_700_000_000) * 1e9 // a whole second, in ns

func TestCaptureStages(t *testing.T) {
	c := newCapture(srvAddr, port, true)
	feed(t, c, synStream([]synSeg{
		{tsNS: base + 1000, toServer: true, flags: 0x02},         // SYN
		{tsNS: base + 5000, toServer: true, payload: synMsg(1)},  // request 1
		{tsNS: base + 9000, payload: synMsg(1)},                  // reply 1
		{tsNS: base + 9000, toServer: true, flags: 0x10},         // pure ACK
		{tsNS: base + 20000, toServer: true, payload: synMsg(2)}, // request 2
		{tsNS: base + 31000, payload: synMsg(2)},                 // reply 2
		{tsNS: base + 40000, toServer: true, payload: synMsg(3)}, // request 3: failed exchange
	}))
	spans := []rpcSpan{
		{stamp: 1, start: base + 3500, end: base + 9800, inWindow: true},
		{stamp: 2, start: base + 19000, end: base + 31250, inWindow: true},
		{stamp: 3, start: base + 39000, end: base + 2e9, failed: true},
	}
	st := c.correlate(spans)
	if st.unmatched != 0 || st.misordered != 0 {
		t.Fatalf("unmatched %d misordered %d, want 0 and 0", st.unmatched, st.misordered)
	}
	want := [][]float64{{1.5, 1}, {4, 11}, {0.8, 0.25}}
	got := [][]float64{st.clientTx, st.serverTurn, st.clientRx}
	for i := range want {
		if len(got[i]) != 2 || got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("stage %d = %v, want %v", i, got[i], want[i])
		}
	}
	for i, s := range spans[:2] {
		sum := st.clientTx[i] + st.serverTurn[i] + st.clientRx[i]
		if total := float64(s.end-s.start) / 1e3; sum != total {
			t.Fatalf("span %d: stages add to %v us, RPC took %v us", i, sum, total)
		}
	}
	if pkts, data := c.counts(); pkts != 7 || data != 5 {
		t.Fatalf("counts = %d packets, %d data segments; want 7, 5", pkts, data)
	}
}

func TestCaptureFlagsAnomalies(t *testing.T) {
	c := newCapture(srvAddr, port, true)
	feed(t, c, synStream([]synSeg{
		{tsNS: base + 1000, toServer: true, payload: synMsg(1)},
		{tsNS: base + 2000, payload: synMsg(1)},
		{tsNS: base + 3000, toServer: true, payload: synMsg(2)},
		{tsNS: base + 3500, toServer: true, payload: synMsg(2)}, // retransmission
		{tsNS: base + 4000, payload: synMsg(2)},
		{tsNS: base + 5000, toServer: true, payload: []byte("short")}, // not a request
		{tsNS: base + 6000, toServer: true, payload: synMsg(9)},       // no exchange sent it
		{tsNS: base + 7000, toServer: true, payload: synMsg(3)},
		{tsNS: base + 9000, payload: synMsg(3)}, // after the span ended
		{tsNS: base + 9500, srcIP: synCli, dstIP: 0x0a000009, sport: 1, dport: 2, payload: synMsg(4)},
	}))
	st := c.correlate([]rpcSpan{
		{stamp: 1, start: base, end: base + 2500, inWindow: true},
		{stamp: 2, start: base + 2500, end: base + 4500, inWindow: true},
		{stamp: 3, start: base + 6500, end: base + 8000, inWindow: true},
	})
	// Span 2 lacks a unique request (1), its three segments go unused
	// (3), plus the short segment, the unsent request 9 and the segment
	// on another connection (3).
	if st.unmatched != 7 {
		t.Errorf("unmatched = %d, want 7", st.unmatched)
	}
	if st.misordered != 1 {
		t.Errorf("misordered = %d, want 1", st.misordered)
	}
	if len(st.clientTx) != 1 {
		t.Errorf("%d spans measured, want 1", len(st.clientTx))
	}
}

func TestCaptureUnkeyedOnlyCounts(t *testing.T) {
	c := newCapture(srvAddr, port, false)
	feed(t, c, synStream([]synSeg{
		{tsNS: base, toServer: true, payload: make([]byte, 1448)},
		{tsNS: base + 10, flags: 0x10},
	}))
	if pkts, data := c.counts(); pkts != 2 || data != 1 {
		t.Fatalf("counts = %d, %d; want 2, 1", pkts, data)
	}
	if st := c.correlate(nil); st.unmatched != 0 {
		t.Fatalf("unkeyed capture reported %d unmatched", st.unmatched)
	}
}

func TestCaptureRejectsMalformedStreams(t *testing.T) {
	bad := synStream(nil)
	bad[0] ^= 0xff
	if _, err := newCapture(srvAddr, port, true).Write(bad); err == nil {
		t.Error("a stream with a bad magic number was accepted")
	}
	stream := synStream([]synSeg{{tsNS: base, toServer: true, payload: synMsg(1)}})
	stream[24+16+14+9] = 17 // UDP
	_, err := newCapture(srvAddr, port, true).Write(stream)
	if err == nil || !strings.Contains(err.Error(), "TCP") {
		t.Errorf("a UDP frame gave %v, want a TCP framing error", err)
	}
}
