package distsim

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry/tracing"
)

// readOneRecord pushes an encoded record through the stream reader and
// returns its body, checking the framing accounts for every byte.
func readOneRecord(t *testing.T, rec []byte) []byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(rec))
	var scratch []byte
	body, wire, err := readRecord(br, &scratch)
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	if wire != len(rec) {
		t.Fatalf("wire bytes %d != record length %d", wire, len(rec))
	}
	return body
}

func TestLookupRoundTrip(t *testing.T) {
	cases := []struct {
		fe       uint32
		reqID, u uint64
		trace    tracing.Context
	}{
		{0, 0, 0, tracing.Context{}},
		{1, 1, 1, tracing.Context{}},
		{7, 1 << 40, 0x9e3779b97f4a7c15, tracing.Context{}},
		{maxWireAgents - 1, ^uint64(0), ^uint64(0), tracing.Context{}},
		{3, 42, 99, tracing.Context{Trace: 0xfeedface, Span: 0xdeadbeef}},
		{maxWireAgents - 1, ^uint64(0), 1, tracing.Context{Trace: 0xffffffffffffffff, Span: 1}},
	}
	for _, tc := range cases {
		body := readOneRecord(t, appendLookup(nil, tc.fe, tc.reqID, tc.u, tc.trace))
		if !peekLookup(body) {
			t.Fatalf("peekLookup(fe=%d) = false", tc.fe)
		}
		if peekDecision(body) {
			t.Fatalf("lookup body mistaken for decision")
		}
		fe, reqID, u, trace, err := parseLookup(body)
		if err != nil {
			t.Fatalf("parseLookup(fe=%d): %v", tc.fe, err)
		}
		if fe != tc.fe || reqID != tc.reqID || u != tc.u || trace != tc.trace {
			t.Errorf("lookup round-trip: got (%d, %d, %d, %+v), want (%d, %d, %d, %+v)",
				fe, reqID, u, trace, tc.fe, tc.reqID, tc.u, tc.trace)
		}
		// An untraced lookup must stay byte-identical to the pre-tracing
		// format: no flag, no suffix.
		if !tc.trace.Valid() && body[0] != frameKindLookup {
			t.Errorf("untraced lookup head byte %#02x", body[0])
		}
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	cases := []Decision{
		{},
		{ReqID: 1, DC: 0, Slot: 0, AgeNanos: 0, OK: true},
		{ReqID: ^uint64(0), DC: maxWireAgents - 1, Slot: 1 << 50, AgeNanos: 5e9, OK: true},
		{ReqID: 42, AgeNanos: -1, OK: false},
	}
	for _, want := range cases {
		body := readOneRecord(t, appendDecision(nil, want))
		if !peekDecision(body) {
			t.Fatalf("peekDecision(%+v) = false", want)
		}
		got, err := parseDecision(body)
		if err != nil {
			t.Fatalf("parseDecision(%+v): %v", want, err)
		}
		if got != want {
			t.Errorf("decision round-trip: got %+v, want %+v", got, want)
		}
	}
}

func TestCPStatsRoundTrip(t *testing.T) {
	req := readOneRecord(t, appendCPStatsRequest(nil))
	if isStats, isReq := peekCPStats(req); !isStats || !isReq {
		t.Fatalf("stats request peek = (%v, %v), want (true, true)", isStats, isReq)
	}

	for _, vals := range [][]float64{
		nil,
		{0},
		{1, -2.5, math.Pi, math.Inf(1), math.MaxFloat64, -0.0},
	} {
		body := readOneRecord(t, appendCPStatsResponse(nil, vals))
		isStats, isReq := peekCPStats(body)
		if !isStats || isReq {
			t.Fatalf("stats response peek = (%v, %v), want (true, false)", isStats, isReq)
		}
		got, err := parseCPStatsResponse(body)
		if err != nil {
			t.Fatalf("parseCPStatsResponse(%v): %v", vals, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("stats round-trip: %d values, want %d", len(got), len(vals))
		}
		for k := range vals {
			if math.Float64bits(got[k]) != math.Float64bits(vals[k]) {
				t.Errorf("stats value %d: got %g, want %g", k, got[k], vals[k])
			}
		}
	}
}

func TestServeParseRejectsMalformed(t *testing.T) {
	lookup := appendLookup(nil, 3, 99, 7, tracing.Context{})[1:] // strip length prefix
	traced := appendLookup(nil, 3, 99, 7, tracing.Context{Trace: 5, Span: 6})[1:]
	decision := appendDecision(nil, Decision{OK: true, DC: 2, Slot: 5, AgeNanos: 11})[1:]
	stats := appendCPStatsResponse(nil, []float64{1, 2})[1:]

	cases := []struct {
		name string
		body []byte
		kind byte
	}{
		{"empty lookup", nil, frameKindLookup},
		{"lookup trailing byte", append(append([]byte(nil), lookup...), 0), frameKindLookup},
		{"lookup truncated id", lookup[:len(lookup)-9], frameKindLookup},
		{"lookup fe out of range", appendLookup(nil, maxWireAgents, 0, 0, tracing.Context{})[1:], frameKindLookup},
		{"traced lookup truncated suffix", traced[:len(traced)-1], frameKindLookup},
		{"traced lookup missing suffix", traced[:len(traced)-traceSuffixLen], frameKindLookup},
		{"traced lookup trailing byte", append(append([]byte(nil), traced...), 0), frameKindLookup},
		{"decision trailing byte", append(append([]byte(nil), decision...), 0), frameKindDecision},
		{"decision truncated age", decision[:len(decision)-1], frameKindDecision},
		{"decision bad status", append([]byte{frameKindDecision, 7}, decision[2:]...), frameKindDecision},
		{"stats trailing byte", append(append([]byte(nil), stats...), 0), frameKindCPStats},
		{"stats count overclaims", []byte{frameKindCPStats, 200}, frameKindCPStats},
		{"stats truncated value", stats[:len(stats)-3], frameKindCPStats},
	}
	for _, tc := range cases {
		var err error
		switch tc.kind {
		case frameKindLookup:
			_, _, _, _, err = parseLookup(tc.body)
		case frameKindDecision:
			_, err = parseDecision(tc.body)
		case frameKindCPStats:
			_, err = parseCPStatsResponse(tc.body)
		}
		if err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}

	// Cross-kind confusion must be an explicit error, not a misparse.
	if _, _, _, _, err := parseLookup(decision); !errors.Is(err, ErrFrameInvalid) {
		t.Errorf("parseLookup(decision body): %v", err)
	}
	if _, err := parseDecision(lookup); !errors.Is(err, ErrFrameInvalid) {
		t.Errorf("parseDecision(lookup body): %v", err)
	}
}

// stubDecider answers fe % 3 for front-ends below m, with fixed slot and
// age, counting every decision it makes.
type stubDecider struct {
	m       uint32
	decided atomic.Uint64
}

func (s *stubDecider) Decide(fe uint32, u uint64) (uint32, uint64, int64, bool) {
	if fe >= s.m {
		return 0, 0, -1, false
	}
	s.decided.Add(1)
	return fe % 3, 42, 1234, true
}

func (s *stubDecider) StatsPayload(dst []float64) []float64 {
	return append(dst, 1, float64(s.m), float64(s.decided.Load()))
}

func TestHubServesLookups(t *testing.T) {
	dec := &stubDecider{m: 16}
	hub, err := listenHub(ListenConfig{Decider: dec})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }() //ufc:discard test cleanup

	const reqs = 200
	var mu sync.Mutex
	got := make(map[uint64]Decision, reqs+1)
	all := make(chan struct{})
	client, err := dialLookup(hub.Addr(), "lg-test", func(d Decision) {
		mu.Lock()
		got[d.ReqID] = d
		n := len(got)
		mu.Unlock()
		if n == reqs+1 {
			close(all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }() //ufc:discard test cleanup

	for k := uint64(0); k < reqs; k++ {
		if err := client.Lookup(uint32(k%16), k, k*0x9e3779b97f4a7c15); err != nil {
			t.Fatalf("lookup %d: %v", k, err)
		}
	}
	// One out-of-range front-end must come back as a clean miss, not an
	// error or a dropped connection.
	if err := client.Lookup(16, reqs, 0); err != nil {
		t.Fatal(err)
	}

	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out with %d of %d decisions (client err: %v)", n, reqs+1, client.Err())
	}

	mu.Lock()
	defer mu.Unlock()
	for k := uint64(0); k < reqs; k++ {
		d, ok := got[k]
		if !ok {
			t.Fatalf("no decision for request %d", k)
		}
		want := Decision{ReqID: k, DC: uint32(k % 16 % 3), Slot: 42, AgeNanos: 1234, OK: true}
		if d != want {
			t.Errorf("request %d: got %+v, want %+v", k, d, want)
		}
	}
	if d := got[reqs]; d.OK || d.AgeNanos != -1 {
		t.Errorf("out-of-range front-end: got %+v, want unavailable with age -1", d)
	}

	vals, err := client.QueryStats(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[1] != 16 || vals[2] != reqs {
		t.Errorf("stats payload %v, want [1 16 %d]", vals, reqs)
	}

	if st := hub.Stats(); st.DecisionsAnswered != reqs+1 {
		t.Errorf("hub answered %d decisions, want %d", st.DecisionsAnswered, reqs+1)
	}
}

func TestLookupClientRejectsGarbage(t *testing.T) {
	dec := &stubDecider{m: 4}
	hub, err := listenHub(ListenConfig{Decider: dec})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }() //ufc:discard test cleanup

	client, err := dialLookup(hub.Addr(), "lg-garbage", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }() //ufc:discard test cleanup

	// A malformed lookup must fail the connection server-side: the hub
	// cannot resynchronize a corrupt stream, so the link comes down and
	// the client surfaces a terminal error.
	fb := getFrame()
	fb.b = append(fb.b, 3, frameKindLookup, 0xff, 0xff) // truncated uvarint fe
	if err := client.cw.enqueue(fb); err != nil {
		putFrame(fb)
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for client.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("connection survived a malformed lookup")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
