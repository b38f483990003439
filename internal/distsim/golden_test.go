package distsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry/tracing"
)

// The golden interop harness pins the wire format across codec versions:
// canonical sessions — every record family the transport speaks — are
// checked in as recorded byte captures under testdata/golden and replayed
// against the current stack in both directions. The v1 captures were
// recorded from the pre-versioning codec (PR 2 framing), so they prove
// v1 plaintext framing stays bit-preserved; the v2 captures pin the
// versioned handshake bytes in front of the identical record stream.
//
// Regenerate with: go test ./internal/distsim -run TestGolden -update-golden
// (only when a deliberate, documented format change is being made).
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire captures under testdata/golden")

// goldenNodeMsgs is the canonical node→hub message set: indexed and named
// addressing, empty and non-empty payloads, the Stop flag, and a traced
// frame with a fixed trace context.
var goldenNodeMsgs = []struct {
	to string
	m  Message
}{
	{"dc-0", Message{Kind: KindRouting, Iter: 1, From: "fe-0", Payload: []float64{1, 2.5, -3.75}}},
	{"aux-x", Message{Kind: KindAux, Iter: 2, From: "fe-0"}},
	{"coord", Message{Kind: KindReport, Iter: 3, From: "fe-0", Payload: []float64{0.125}, Stop: true}},
	{"dc-1", Message{Kind: KindRouting, Iter: 4, From: "fe-0", Payload: []float64{7},
		Trace: tracing.Context{Trace: 0x0123456789abcdef, Span: 0x0fedcba987654321}}},
}

// buildGoldenNodeSession encodes the canonical node→hub stream: the
// registration hello, the message set, and a heartbeat ping.
func buildGoldenNodeSession() []byte {
	b := appendHello(nil, []string{"fe-0", "coord"})
	for _, c := range goldenNodeMsgs {
		m := c.m
		b = appendFrame(b, c.to, &m)
	}
	return appendPing(b)
}

// goldenHubMsgs is the canonical hub→node message set.
var goldenHubMsgs = []struct {
	to string
	m  Message
}{
	{"fe-0", Message{Kind: KindAux, Iter: 1, From: "dc-0", Payload: []float64{42.5}}},
	{"fe-0", Message{Kind: KindControl, Iter: 1, From: "coord", Stop: true}},
}

func buildGoldenHubSession() []byte {
	b := appendPong(nil)
	for _, c := range goldenHubMsgs {
		m := c.m
		b = appendFrame(b, c.to, &m)
	}
	return b
}

// goldenTreeMsgs is the canonical batched child-hub→parent message set.
var goldenTreeMsgs = []struct {
	to string
	m  Message
}{
	{"dc-0", Message{Kind: KindRouting, Iter: 9, From: "fe-0", Payload: []float64{0.5, -1}}},
	{"coord", Message{Kind: KindReport, Iter: 9, From: "fe-0", Payload: []float64{3}}},
}

// buildGoldenTreeSession encodes the canonical child-hub→parent stream:
// the hub handshake, an upward route registration, and one batch record
// wrapping two complete sub-records.
func buildGoldenTreeSession() []byte {
	b := appendHubHello(nil, 3)
	b = appendHello(b, []string{"fe-0"})
	var inner []byte
	for _, c := range goldenTreeMsgs {
		m := c.m
		inner = appendFrame(inner, c.to, &m)
	}
	return appendBatchFrame(b, inner)
}

// buildGoldenServeRequests encodes the canonical lookup-client→hub
// stream: hello, an untraced and a traced lookup, and a stats request.
func buildGoldenServeRequests() []byte {
	b := appendHello(nil, []string{"lg-0"})
	b = appendLookup(b, 2, 7, 0x5555aaaa5555aaaa, tracing.Context{})
	b = appendLookup(b, 5, 8, 1, tracing.Context{Trace: 0x11, Span: 0x22})
	return appendCPStatsRequest(b)
}

// buildGoldenServeResponses encodes the hub's answers to the request
// capture when served by goldenDecider.
func buildGoldenServeResponses() []byte {
	b := appendDecision(nil, Decision{ReqID: 7, DC: 2, Slot: 9, AgeNanos: 123456789, OK: true})
	b = appendDecision(b, Decision{ReqID: 8, OK: false})
	return appendCPStatsResponse(b, []float64{1, 2, 3.5})
}

// goldenDecider is the deterministic Decider behind the serve captures:
// front-end 5 has no snapshot; everything else routes to DC fe at slot 9.
type goldenDecider struct{}

func (goldenDecider) Decide(fe uint32, u uint64) (uint32, uint64, int64, bool) {
	if fe == 5 {
		return 0, 0, 0, false
	}
	return fe, 9, 123456789, true
}

func (goldenDecider) StatsPayload(dst []float64) []float64 {
	return append(dst, 1, 2, 3.5)
}

// goldenToken is the auth token baked into the v2 captures.
const goldenToken = "golden-token"

// buildGoldenNodeSessionV2 is the canonical v2 node→hub stream: the
// versioned client hello (strict v2, with the golden token) followed by
// the identical v1 record stream — v2 changes nothing after the
// handshake.
func buildGoldenNodeSessionV2() []byte {
	b := appendClientHandshake(nil, WireVersion2, WireVersion2, goldenToken)
	return append(b, buildGoldenNodeSession()...)
}

// buildGoldenAckV2 is the canonical v2 server ack: ok, version 2.
func buildGoldenAckV2() []byte {
	return appendServerHandshake(nil, hsStatusOK, WireVersion2)
}

// goldenCaptures maps capture files to their builders.
var goldenCaptures = []struct {
	file  string
	build func() []byte
}{
	{"node_v1.bin", buildGoldenNodeSession},
	{"hub_v1.bin", buildGoldenHubSession},
	{"tree_v1.bin", buildGoldenTreeSession},
	{"serve_req_v1.bin", buildGoldenServeRequests},
	{"serve_resp_v1.bin", buildGoldenServeResponses},
	{"node_v2.bin", buildGoldenNodeSessionV2},
	{"ack_v2.bin", buildGoldenAckV2},
}

func goldenPath(file string) string {
	return filepath.Join("testdata", "golden", file)
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(file))
	if err != nil {
		t.Fatalf("missing golden capture (run with -update-golden to record): %v", err)
	}
	return b
}

// TestGoldenCapturesStable re-encodes every canonical session with the
// current codec and requires byte equality with the recorded captures:
// the v1 files were recorded from the pre-versioning codec, so any
// mismatch is a silent wire-format break.
func TestGoldenCapturesStable(t *testing.T) {
	for _, c := range goldenCaptures {
		got := c.build()
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(goldenPath(c.file)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(c.file), got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := readGolden(t, c.file)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: current codec diverges from the recorded capture\n got: %s\nwant: %s",
				c.file, hex.EncodeToString(got), hex.EncodeToString(want))
		}
	}
}

// readAllRecords splits a capture into its record bodies (copies).
func readAllRecords(t *testing.T, capture []byte) [][]byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(capture))
	var scratch []byte
	var bodies [][]byte
	for {
		body, _, err := readRecord(br, &scratch)
		if err == io.EOF {
			return bodies
		}
		if err != nil {
			t.Fatalf("corrupt capture after %d records: %v", len(bodies), err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
	}
}

func assertMessage(t *testing.T, body []byte, wantTo string, want Message) {
	t.Helper()
	var cache idCache
	fr, err := decodeMessageFrame(body, &cache)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	to := fr.to
	if !fr.named {
		to = cache.lookup(fr.toIdx)
	}
	if to != wantTo || fr.msg.Kind != want.Kind || fr.msg.Iter != want.Iter ||
		fr.msg.From != want.From || fr.msg.Stop != want.Stop || fr.msg.Trace != want.Trace {
		t.Fatalf("decoded header mismatch: got to=%q %+v want to=%q %+v", to, fr.msg, wantTo, want)
	}
	if len(fr.msg.Payload) != len(want.Payload) {
		t.Fatalf("payload length %d, want %d", len(fr.msg.Payload), len(want.Payload))
	}
	for i := range want.Payload {
		if fr.msg.Payload[i] != want.Payload[i] {
			t.Fatalf("payload[%d] = %v, want %v (must be bit-identical)", i, fr.msg.Payload[i], want.Payload[i])
		}
	}
}

// TestGoldenV1Decode parses every record of the v1 captures with the
// current decoders and checks the decoded fields against the canonical
// session, proving captures recorded from the pre-versioning codec still
// decode cleanly on the new stack.
func TestGoldenV1Decode(t *testing.T) {
	node := readAllRecords(t, readGolden(t, "node_v1.bin"))
	if len(node) != len(goldenNodeMsgs)+2 {
		t.Fatalf("node capture has %d records, want %d", len(node), len(goldenNodeMsgs)+2)
	}
	ids, err := parseHello(node[0])
	if err != nil || len(ids) != 2 || ids[0] != "fe-0" || ids[1] != "coord" {
		t.Fatalf("hello decoded to %v (%v)", ids, err)
	}
	for i, c := range goldenNodeMsgs {
		assertMessage(t, node[1+i], c.to, c.m)
	}
	if ping, _ := parseHeartbeat(node[len(node)-1]); !ping {
		t.Fatalf("final record is not a ping")
	}

	hub := readAllRecords(t, readGolden(t, "hub_v1.bin"))
	if _, pong := parseHeartbeat(hub[0]); !pong {
		t.Fatalf("first hub record is not a pong")
	}
	for i, c := range goldenHubMsgs {
		assertMessage(t, hub[1+i], c.to, c.m)
	}

	tree := readAllRecords(t, readGolden(t, "tree_v1.bin"))
	if len(tree) != 3 {
		t.Fatalf("tree capture has %d records, want 3", len(tree))
	}
	region, err := parseHubHello(tree[0])
	if err != nil || region != 3 {
		t.Fatalf("hub hello decoded to region %d (%v)", region, err)
	}
	rest, err := parseBatch(tree[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenTreeMsgs {
		var sub []byte
		sub, rest, err = splitBatchRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		assertMessage(t, sub, c.to, c.m)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing batch bytes", len(rest))
	}

	req := readAllRecords(t, readGolden(t, "serve_req_v1.bin"))
	fe, reqID, u, tc, err := parseLookup(req[1])
	if err != nil || fe != 2 || reqID != 7 || u != 0x5555aaaa5555aaaa || tc.Valid() {
		t.Fatalf("lookup decoded to fe=%d req=%d u=%#x tc=%+v (%v)", fe, reqID, u, tc, err)
	}
	if _, _, _, tc, err = parseLookup(req[2]); err != nil || tc.Trace != 0x11 || tc.Span != 0x22 {
		t.Fatalf("traced lookup context %+v (%v)", tc, err)
	}
	resp := readAllRecords(t, readGolden(t, "serve_resp_v1.bin"))
	d, err := parseDecision(resp[0])
	if err != nil || !d.OK || d.ReqID != 7 || d.DC != 2 || d.Slot != 9 || d.AgeNanos != 123456789 {
		t.Fatalf("decision decoded to %+v (%v)", d, err)
	}
	if d, err = parseDecision(resp[1]); err != nil || d.OK || d.ReqID != 8 {
		t.Fatalf("unavailable decision decoded to %+v (%v)", d, err)
	}
	vals, err := parseCPStatsResponse(resp[2])
	if err != nil || len(vals) != 3 || vals[2] != 3.5 {
		t.Fatalf("cpstats decoded to %v (%v)", vals, err)
	}
}

// collectInbox drains n messages from box with a deadline.
func collectInbox(t *testing.T, box <-chan Message, n int) []Message {
	t.Helper()
	msgs := make([]Message, 0, n)
	timeout := time.After(10 * time.Second)
	for len(msgs) < n {
		select {
		case m, ok := <-box:
			if !ok {
				t.Fatalf("inbox closed after %d of %d messages", len(msgs), n)
			}
			msgs = append(msgs, m)
		case <-timeout:
			t.Fatalf("timed out after %d of %d messages", len(msgs), n)
		}
	}
	return msgs
}

// TestGoldenReplayNodeToHub writes the recorded node_v1.bin capture over
// a raw TCP connection into a live hub and asserts the hub routes the
// captured messages to a registered node, byte-preserved payloads and
// trace context included.
func TestGoldenReplayNodeToHub(t *testing.T) {
	capture := readGolden(t, "node_v1.bin")
	hub, err := listenHub(ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	node, err := dialNode(hub.Addr(), []string{"dc-0", "dc-1"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()

	raw, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write(capture); err != nil {
		t.Fatal(err)
	}

	dc0, err := node.Inbox("dc-0")
	if err != nil {
		t.Fatal(err)
	}
	dc1, err := node.Inbox("dc-1")
	if err != nil {
		t.Fatal(err)
	}
	got := collectInbox(t, dc0, 1)[0]
	want := goldenNodeMsgs[0].m
	if got.From != want.From || got.Iter != want.Iter || len(got.Payload) != 3 || got.Payload[2] != want.Payload[2] {
		t.Fatalf("dc-0 received %+v, want %+v", got, want)
	}
	got = collectInbox(t, dc1, 1)[0]
	want = goldenNodeMsgs[3].m
	if got.Trace != want.Trace || got.Payload[0] != want.Payload[0] {
		t.Fatalf("dc-1 received %+v, want %+v", got, want)
	}
	// The raw connection sent a ping; the hub must have answered it.
	br := bufio.NewReader(raw)
	var scratch []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		_ = raw.SetReadDeadline(deadline) //ufc:discard a failed deadline set surfaces as the read error below
		body, _, err := readRecord(br, &scratch)
		if err != nil {
			t.Fatalf("waiting for pong: %v", err)
		}
		if _, pong := parseHeartbeat(body); pong {
			break
		}
	}
}

// TestGoldenReplayNodeToHubV2 writes the recorded node_v2.bin capture —
// versioned handshake plus the v1 record stream — into a live hub
// requiring the golden token, asserts the hub's ack matches the
// recorded ack_v2.bin byte-for-byte, and that the captured messages
// still route exactly as their v1 twins.
func TestGoldenReplayNodeToHubV2(t *testing.T) {
	capture := readGolden(t, "node_v2.bin")
	wantAck := readGolden(t, "ack_v2.bin")
	hub, err := Listen(context.Background(), ListenConfig{
		Addr:     "127.0.0.1:0",
		Security: SecurityConfig{AuthToken: goldenToken},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	node, err := Dial(context.Background(), DialConfig{
		Addr:     hub.Addr(),
		AgentIDs: []string{"dc-0", "dc-1"},
		Security: SecurityConfig{AuthToken: goldenToken},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()

	raw, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write(capture); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second)) //ufc:discard a failed deadline set surfaces as the read error below
	gotAck := make([]byte, len(wantAck))
	if _, err := io.ReadFull(raw, gotAck); err != nil {
		t.Fatalf("reading handshake ack: %v", err)
	}
	if !bytes.Equal(gotAck, wantAck) {
		t.Fatalf("handshake ack diverges from the recorded capture\n got: %s\nwant: %s",
			hex.EncodeToString(gotAck), hex.EncodeToString(wantAck))
	}

	dc0, err := node.(*TCPNode).Inbox("dc-0")
	if err != nil {
		t.Fatal(err)
	}
	got := collectInbox(t, dc0, 1)[0]
	want := goldenNodeMsgs[0].m
	if got.From != want.From || got.Iter != want.Iter || len(got.Payload) != 3 || got.Payload[2] != want.Payload[2] {
		t.Fatalf("dc-0 received %+v, want %+v", got, want)
	}
}

// TestGoldenReplayHubToNode serves the recorded hub_v1.bin capture from a
// fake hub socket to a real TCPNode and asserts the node decodes and
// delivers the captured messages.
func TestGoldenReplayHubToNode(t *testing.T) {
	capture := readGolden(t, "hub_v1.bin")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() { _, _ = io.Copy(io.Discard, conn) }()
		_, _ = conn.Write(capture)
	}()
	node, err := dialNode(ln.Addr().String(), []string{"fe-0"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	box, err := node.Inbox("fe-0")
	if err != nil {
		t.Fatal(err)
	}
	msgs := collectInbox(t, box, len(goldenHubMsgs))
	for i, c := range goldenHubMsgs {
		if msgs[i].Kind != c.m.Kind || msgs[i].From != c.m.From || msgs[i].Stop != c.m.Stop {
			t.Fatalf("message %d decoded to %+v, want %+v", i, msgs[i], c.m)
		}
	}
	if msgs[0].Payload[0] != goldenHubMsgs[0].m.Payload[0] {
		t.Fatalf("payload not bit-preserved: %v", msgs[0].Payload)
	}
}

// TestGoldenReplayTreeToParent writes the recorded child-hub capture into
// a live hub acting as the parent and asserts the batched records reach
// the agents registered there.
func TestGoldenReplayTreeToParent(t *testing.T) {
	capture := readGolden(t, "tree_v1.bin")
	parent, err := listenHub(ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = parent.Close() }()
	node, err := dialNode(parent.Addr(), []string{"dc-0", "coord"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()

	raw, err := net.Dial("tcp", parent.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write(capture); err != nil {
		t.Fatal(err)
	}
	dc0, err := node.Inbox("dc-0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := node.Inbox("coord")
	if err != nil {
		t.Fatal(err)
	}
	if got := collectInbox(t, dc0, 1)[0]; got.Iter != 9 || got.Payload[1] != -1 {
		t.Fatalf("dc-0 received %+v", got)
	}
	if got := collectInbox(t, coord, 1)[0]; got.Kind != KindReport || got.Payload[0] != 3 {
		t.Fatalf("coord received %+v", got)
	}
}

// TestGoldenReplayServe writes the recorded lookup-client capture into a
// live serving hub and requires the hub's reply bytes to match the
// recorded response capture exactly.
func TestGoldenReplayServe(t *testing.T) {
	reqCapture := readGolden(t, "serve_req_v1.bin")
	wantResp := readGolden(t, "serve_resp_v1.bin")
	hub, err := listenHub(ListenConfig{Decider: goldenDecider{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	raw, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write(reqCapture); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second)) //ufc:discard a failed deadline set surfaces as the read error below
	got := make([]byte, len(wantResp))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatalf("reading %d response bytes: %v", len(wantResp), err)
	}
	if !bytes.Equal(got, wantResp) {
		t.Errorf("serve responses diverge from the recorded capture\n got: %s\nwant: %s",
			hex.EncodeToString(got), hex.EncodeToString(wantResp))
	}
}
