package distsim

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

// noLeakedGoroutines fails the test if the goroutine count has not
// returned to its starting level shortly after the test's own cleanups
// ran. Register first: t.Cleanup is LIFO, so this check runs after the
// hubs and endpoints registered later have shut down.
func noLeakedGoroutines(t *testing.T) {
	t.Helper()
	start := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= start {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d at start, %d after cleanup\n%s",
			start, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

func TestSecurityConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     SecurityConfig
		wantErr bool
	}{
		{name: "zero value", cfg: SecurityConfig{}},
		{name: "explicit v1", cfg: SecurityConfig{WireVersion: WireVersion1}},
		{name: "explicit v2", cfg: SecurityConfig{WireVersion: WireVersion2}},
		{name: "token", cfg: SecurityConfig{AuthToken: "s3cret"}},
		{name: "token with explicit v2", cfg: SecurityConfig{AuthToken: "s3cret", WireVersion: WireVersion2}},
		{name: "v2 with downgrade floor", cfg: SecurityConfig{WireVersion: WireVersion2, MinWireVersion: 1}},
		{name: "unknown version", cfg: SecurityConfig{WireVersion: 3}, wantErr: true},
		{name: "negative version", cfg: SecurityConfig{WireVersion: -1}, wantErr: true},
		{name: "unknown min version", cfg: SecurityConfig{MinWireVersion: 3}, wantErr: true},
		{name: "token over v1", cfg: SecurityConfig{AuthToken: "s3cret", WireVersion: WireVersion1}, wantErr: true},
		{name: "token with v1 floor", cfg: SecurityConfig{AuthToken: "s3cret", MinWireVersion: 1}, wantErr: true},
		{name: "min above max", cfg: SecurityConfig{WireVersion: WireVersion1, MinWireVersion: 2}, wantErr: true},
		{name: "oversized token", cfg: SecurityConfig{AuthToken: string(make([]byte, maxTokenBytes+1))}, wantErr: true},
		{name: "negative timeout", cfg: SecurityConfig{HandshakeTimeout: -time.Second}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestSecurityConfigVersionResolution(t *testing.T) {
	tlsCfg := newTestPKI(t).clientConfig()
	cases := []struct {
		name                 string
		cfg                  SecurityConfig
		dialMin, dialMax     byte
		listenMin, listenMax byte
	}{
		{name: "zero: dialers stay v1, listeners accept both",
			cfg: SecurityConfig{}, dialMin: 1, dialMax: 1, listenMin: 1, listenMax: 2},
		{name: "TLS flips dialers to negotiation",
			cfg: SecurityConfig{TLS: tlsCfg}, dialMin: 1, dialMax: 2, listenMin: 1, listenMax: 2},
		{name: "token forces v2 everywhere",
			cfg: SecurityConfig{AuthToken: "s3cret"}, dialMin: 2, dialMax: 2, listenMin: 2, listenMax: 2},
		{name: "explicit v2 is strict",
			cfg: SecurityConfig{WireVersion: WireVersion2}, dialMin: 2, dialMax: 2, listenMin: 2, listenMax: 2},
		{name: "explicit v2 with downgrade floor",
			cfg: SecurityConfig{WireVersion: WireVersion2, MinWireVersion: 1}, dialMin: 1, dialMax: 2, listenMin: 1, listenMax: 2},
		{name: "pinned v1",
			cfg: SecurityConfig{WireVersion: WireVersion1}, dialMin: 1, dialMax: 1, listenMin: 1, listenMax: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.validate(); err != nil {
				t.Fatalf("validate() = %v", err)
			}
			if gotMin, gotMax := tc.cfg.dialVersions(); gotMin != tc.dialMin || gotMax != tc.dialMax {
				t.Errorf("dialVersions() = [%d, %d], want [%d, %d]", gotMin, gotMax, tc.dialMin, tc.dialMax)
			}
			if gotMin, gotMax := tc.cfg.versionRange(); gotMin != tc.listenMin || gotMax != tc.listenMax {
				t.Errorf("versionRange() = [%d, %d], want [%d, %d]", gotMin, gotMax, tc.listenMin, tc.listenMax)
			}
		})
	}
}

func TestNegotiateVersion(t *testing.T) {
	cases := []struct {
		cMin, cMax, sMin, sMax byte
		want                   byte
		ok                     bool
	}{
		{1, 1, 1, 2, 1, true},
		{1, 2, 1, 2, 2, true},
		{2, 2, 1, 2, 2, true},
		{1, 2, 1, 1, 1, true},
		{1, 2, 2, 2, 2, true},
		{2, 2, 1, 1, 0, false},
		{1, 1, 2, 2, 0, false},
	}
	for _, tc := range cases {
		v, ok := negotiateVersion(tc.cMin, tc.cMax, tc.sMin, tc.sMax)
		if v != tc.want || ok != tc.ok {
			t.Errorf("negotiateVersion(client [%d,%d], server [%d,%d]) = (%d, %v), want (%d, %v)",
				tc.cMin, tc.cMax, tc.sMin, tc.sMax, v, ok, tc.want, tc.ok)
		}
	}
}

// dialRoundtrip dials addr as a node hosting fe-0 and coord, pushes one
// message through the hub, and returns the node's negotiated version.
func dialRoundtrip(t *testing.T, addr string, sec SecurityConfig) (int, error) {
	t.Helper()
	ep, err := Dial(context.Background(), DialConfig{
		Addr:     addr,
		AgentIDs: []string{"fe-0", "coord"},
		Security: sec,
	})
	if err != nil {
		return 0, err
	}
	t.Cleanup(func() { _ = ep.Close() })
	node := ep.(*TCPNode)
	if err := node.Send("coord", Message{Kind: KindReport, Iter: 1, From: "fe-0", Payload: []float64{4.25}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	box, err := node.Inbox("coord")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m, ok := <-box:
		if !ok {
			t.Fatal("inbox closed before the message arrived")
		}
		if m.From != "fe-0" || len(m.Payload) != 1 || m.Payload[0] != 4.25 {
			t.Fatalf("roundtrip message corrupted: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message did not round-trip through the hub")
	}
	return ep.WireVersion(), nil
}

// TestHandshakeVersionMatrix runs live client×server security combos
// through a real hub: negotiated versions, explicit downgrade, and the
// typed refusals for version and token mismatches.
func TestHandshakeVersionMatrix(t *testing.T) {
	noLeakedGoroutines(t)
	cases := []struct {
		name    string
		client  SecurityConfig
		server  SecurityConfig
		wantVer int
		wantErr error
	}{
		{name: "auto/auto stays v1", wantVer: 1},
		{name: "v2 client against auto server", client: SecurityConfig{WireVersion: WireVersion2}, wantVer: 2},
		{name: "matching tokens negotiate v2",
			client: SecurityConfig{AuthToken: "s3cret"}, server: SecurityConfig{AuthToken: "s3cret"}, wantVer: 2},
		{name: "token client against tokenless server",
			client: SecurityConfig{AuthToken: "s3cret"}, wantVer: 2},
		{name: "strict v2 against pinned v1 is refused",
			client: SecurityConfig{WireVersion: WireVersion2}, server: SecurityConfig{WireVersion: WireVersion1}, wantErr: ErrVersionMismatch},
		{name: "v2 with floor 1 downgrades to pinned v1",
			client: SecurityConfig{WireVersion: WireVersion2, MinWireVersion: 1}, server: SecurityConfig{WireVersion: WireVersion1}, wantVer: 1},
		{name: "wrong token is refused",
			client: SecurityConfig{AuthToken: "wr0ng"}, server: SecurityConfig{AuthToken: "s3cret"}, wantErr: ErrAuthFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub, err := Listen(context.Background(), ListenConfig{Addr: "127.0.0.1:0", Security: tc.server})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = hub.Close() })
			ver, err := dialRoundtrip(t, hub.Addr(), tc.client)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Dial error = %v, want errors.Is(%v)", err, tc.wantErr)
				}
				if hub.Stats().HandshakeRefusals == 0 {
					t.Error("hub did not count the handshake refusal")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ver != tc.wantVer {
				t.Errorf("negotiated version = %d, want %d", ver, tc.wantVer)
			}
		})
	}
}

// TestHandshakeLegacyClientAgainstAuthHub covers the one refusal a v1
// dialer cannot observe at dial time: it sends no handshake, so the dial
// succeeds locally and the hub tears the connection down. The refusal is
// visible in the hub's counter and as the node's inboxes closing.
func TestHandshakeLegacyClientAgainstAuthHub(t *testing.T) {
	noLeakedGoroutines(t)
	hub, err := Listen(context.Background(), ListenConfig{
		Addr:     "127.0.0.1:0",
		Security: SecurityConfig{AuthToken: "s3cret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })

	node, err := dialNode(hub.Addr(), []string{"fe-0"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	box, err := node.Inbox("fe-0")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-box:
		if ok {
			t.Fatal("unexpected message on a refused connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub did not tear the legacy connection down")
	}
	if hub.Stats().HandshakeRefusals == 0 {
		t.Error("hub did not count the handshake refusal")
	}
}

// TestHandshakeMutualTLS pushes a message through a mutual-TLS hub with
// token auth — the full secure stack — and checks v2 was negotiated.
func TestHandshakeMutualTLS(t *testing.T) {
	noLeakedGoroutines(t)
	pki := newTestPKI(t)
	hub, err := Listen(context.Background(), ListenConfig{
		Addr:     "127.0.0.1:0",
		Security: SecurityConfig{TLS: pki.serverConfig(), AuthToken: "s3cret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	ver, err := dialRoundtrip(t, hub.Addr(), SecurityConfig{TLS: pki.clientConfig(), AuthToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	if ver != WireVersion2 {
		t.Errorf("negotiated version = %d, want 2", ver)
	}
}

// TestHandshakeTLSCertVerification covers both certificate failure
// directions: a client that does not trust the server's CA, and a
// mutual-TLS server rejecting a client without a certificate.
func TestHandshakeTLSCertVerification(t *testing.T) {
	noLeakedGoroutines(t)
	pki := newTestPKI(t)
	hub, err := Listen(context.Background(), ListenConfig{
		Addr:     "127.0.0.1:0",
		Security: SecurityConfig{TLS: pki.serverConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })

	t.Run("client rejects untrusted server", func(t *testing.T) {
		otherPKI := newTestPKI(t) // a CA the server's cert does not chain to
		cfg := otherPKI.clientConfig()
		_, err := Dial(context.Background(), DialConfig{
			Addr:     hub.Addr(),
			AgentIDs: []string{"fe-0"},
			Security: SecurityConfig{TLS: cfg},
		})
		if !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("Dial error = %v, want errors.Is(ErrAuthFailed)", err)
		}
	})

	t.Run("server rejects certless client", func(t *testing.T) {
		cfg := pki.clientConfig()
		cfg.Certificates = nil // trusts the server but presents nothing
		_, err := Dial(context.Background(), DialConfig{
			Addr:     hub.Addr(),
			AgentIDs: []string{"fe-0"},
			Security: SecurityConfig{TLS: cfg, HandshakeTimeout: 5 * time.Second},
		})
		if err == nil {
			t.Fatal("Dial succeeded without a client certificate")
		}
		if !errors.Is(err, ErrHandshake) && !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("Dial error = %v, want a typed handshake error", err)
		}
	})
}

// TestHandshakeTLSTimeout dials a listener that accepts and then never
// speaks TLS: the client's handshake must give up with the typed
// timeout, not hang.
func TestHandshakeTLSTimeout(t *testing.T) {
	noLeakedGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // hold the conn open, never write
	}()
	t.Cleanup(func() {
		select {
		case conn := <-accepted:
			_ = conn.Close()
		default:
		}
	})

	pki := newTestPKI(t)
	start := time.Now()
	_, err = Dial(context.Background(), DialConfig{
		Addr:     ln.Addr().String(),
		AgentIDs: []string{"fe-0"},
		Security: SecurityConfig{TLS: pki.clientConfig(), HandshakeTimeout: 300 * time.Millisecond},
	})
	if !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("Dial error = %v, want errors.Is(ErrHandshakeTimeout)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, want ~300ms", elapsed)
	}
}

// TestHandshakeServerTimeout connects to a hub and sends nothing: the
// hub's handshake deadline must reap the silent connection.
func TestHandshakeServerTimeout(t *testing.T) {
	noLeakedGoroutines(t)
	hub, err := Listen(context.Background(), ListenConfig{
		Addr:     "127.0.0.1:0",
		Security: SecurityConfig{HandshakeTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read on silent connection = %v, want EOF (hub-side teardown)", err)
	}
}

// TestLookupClientOverSecureWire covers the serving plane on the secure
// stack: a lookup client dialing through TLS + token reaches the
// decider and gets decisions back.
func TestLookupClientOverSecureWire(t *testing.T) {
	noLeakedGoroutines(t)
	pki := newTestPKI(t)
	hub, err := Listen(context.Background(), ListenConfig{
		Addr:     "127.0.0.1:0",
		Decider:  goldenDecider{},
		Security: SecurityConfig{TLS: pki.serverConfig(), AuthToken: "s3cret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })

	got := make(chan Decision, 1)
	ep, err := Dial(context.Background(), DialConfig{
		Addr:       hub.Addr(),
		LookupName: "lg-0",
		OnDecision: func(d Decision) { got <- d },
		Security:   SecurityConfig{TLS: pki.clientConfig(), AuthToken: "s3cret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	if ep.WireVersion() != WireVersion2 {
		t.Errorf("negotiated version = %d, want 2", ep.WireVersion())
	}
	client := ep.(*LookupClient)
	if err := client.Lookup(2, 7, 0x5555aaaa5555aaaa); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.ReqID != 7 || !d.OK {
			t.Fatalf("decision = %+v, want OK for req 7", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision over the secure wire")
	}
}

// FuzzHandshake fuzzes the handshake codec: arbitrary bytes through the
// client-hello reader (which must never panic and must round-trip what
// it accepts), the server-ack parser, and the version-matrix
// negotiation invariants.
func FuzzHandshake(f *testing.F) {
	f.Add([]byte{hsMagic0, hsMagic1, 1, 2, 0})
	f.Add(appendClientHandshake(nil, 2, 2, "s3cret"))
	f.Add(appendServerHandshake(nil, hsStatusOK, 2))
	f.Add(appendServerHandshake(nil, hsStatusAuth, 0))
	f.Add([]byte{0x01, frameKindHello, 0x00}) // legacy v1 hello prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		minV, maxV, token, err := readClientHandshake(br)
		if err == nil {
			// Round-trip: what the reader accepted must re-encode to the
			// exact bytes it consumed.
			enc := appendClientHandshake(nil, minV, maxV, string(token))
			if !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("client hello round-trip mismatch:\n got %x\nwant %x", enc, data[:len(enc)])
			}
			if minV == 0 || minV > maxV {
				t.Fatalf("reader accepted invalid range [%d, %d]", minV, maxV)
			}
		}

		if v, err := parseServerHandshake(data, 1, 2); err == nil {
			if v < 1 || v > 2 {
				t.Fatalf("ack parser accepted version %d outside the offered range", v)
			}
		}

		// Negotiation invariants over the fuzzed corners of the matrix.
		if len(data) >= 4 {
			cMin, cMax, sMin, sMax := data[0], data[1], data[2], data[3]
			v, ok := negotiateVersion(cMin, cMax, sMin, sMax)
			if ok && (v < cMin || v > cMax || v < sMin || v > sMax) {
				t.Fatalf("negotiated %d outside client [%d,%d] / server [%d,%d]", v, cMin, cMax, sMin, sMax)
			}
			if !ok && cMin <= cMax && sMin <= sMax && max(cMin, sMin) <= min(cMax, sMax) {
				t.Fatalf("refused overlapping ranges client [%d,%d] / server [%d,%d]", cMin, cMax, sMin, sMax)
			}
		}
	})
}

// e2eInstance builds a small solvable instance for end-to-end runs
// (mirrors the external test suite's testInstance, which an in-package
// test cannot reach).
func e2eInstance(t *testing.T, seed int64) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pm := model.DefaultPowerModel()
	sites := model.PaperDatacenterSites()
	dcs := make([]model.Datacenter, 3)
	for j := range dcs {
		dcs[j] = model.Datacenter{
			Location: sites[j],
			Servers:  800 + 300*rng.Float64(),
			Power:    pm,
		}.FullFuelCell()
	}
	feSites := model.PaperFrontEndSites()
	fes := make([]model.FrontEnd, 4)
	for i := range fes {
		fes[i] = model.FrontEnd{Location: feSites[2*i]}
	}
	cloud, err := model.NewCloud(dcs, fes)
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]float64, len(fes))
	for i := range arr {
		arr[i] = 200 + 300*rng.Float64()
	}
	prices := make([]float64, len(dcs))
	rates := make([]float64, len(dcs))
	costs := make([]carbon.CostFunc, len(dcs))
	for j := range prices {
		prices[j] = 20 + 80*rng.Float64()
		rates[j] = 0.2 + 0.6*rng.Float64()
		costs[j] = carbon.LinearTax{Rate: 25}
	}
	return &core.Instance{
		Cloud:            cloud,
		Arrivals:         arr,
		PriceUSD:         prices,
		FuelCellPriceUSD: 80,
		CarbonRate:       rates,
		EmissionCost:     costs,
		Utility:          utility.Quadratic{},
		WeightW:          10,
	}
}

// runSolveOver runs the full distributed ADM-G protocol through a hub
// with the given transport security on both sides, returning the result
// and the negotiated wire version.
func runSolveOver(t *testing.T, inst *core.Instance, server, client SecurityConfig) (*Result, int) {
	t.Helper()
	hub, err := Listen(context.Background(), ListenConfig{Addr: "127.0.0.1:0", Security: server})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	m, n := inst.Cloud.M(), inst.Cloud.N()
	ep, err := Dial(context.Background(), DialConfig{
		Addr:     hub.Addr(),
		AgentIDs: AllAgentIDs(m, n),
		Buffer:   128,
		Security: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := ep.(*TCPNode)
	t.Cleanup(func() { _ = node.Close() })
	res, err := Run(context.Background(), inst, RunOptions{Timeout: time.Minute}, node)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return res, node.WireVersion()
}

// TestSolveOverMutualTLSBitIdentical is the PR's end-to-end acceptance
// check: the full distributed solve over mutual TLS + token auth on the
// v2 wire produces a bit-identical result to the same solve over the
// legacy plaintext v1 wire (and to the sequential solver).
func TestSolveOverMutualTLSBitIdentical(t *testing.T) {
	inst := e2eInstance(t, 4)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	plainRes, plainVer := runSolveOver(t, inst, SecurityConfig{}, SecurityConfig{})
	if plainVer != WireVersion1 {
		t.Fatalf("plaintext run negotiated v%d, want v%d", plainVer, WireVersion1)
	}

	pki := newTestPKI(t)
	const token = "e2e-shared-token"
	secRes, secVer := runSolveOver(t, inst,
		SecurityConfig{TLS: pki.serverConfig(), AuthToken: token},
		SecurityConfig{TLS: pki.clientConfig(), AuthToken: token},
	)
	if secVer != WireVersion2 {
		t.Fatalf("secured run negotiated v%d, want v%d", secVer, WireVersion2)
	}

	if secRes.Breakdown.UFC != plainRes.Breakdown.UFC || secRes.Breakdown.UFC != seqBD.UFC {
		t.Fatalf("UFC differs: secured %v, plaintext %v, sequential %v",
			secRes.Breakdown.UFC, plainRes.Breakdown.UFC, seqBD.UFC)
	}
	if secRes.Stats.Iterations != plainRes.Stats.Iterations {
		t.Fatalf("iterations differ: secured %d vs plaintext %d",
			secRes.Stats.Iterations, plainRes.Stats.Iterations)
	}
	for i := range plainRes.Allocation.Lambda {
		for j := range plainRes.Allocation.Lambda[i] {
			if plainRes.Allocation.Lambda[i][j] != secRes.Allocation.Lambda[i][j] {
				t.Fatalf("lambda[%d][%d]: secured %v vs plaintext %v (must be bit-identical)",
					i, j, secRes.Allocation.Lambda[i][j], plainRes.Allocation.Lambda[i][j])
			}
		}
	}
	for j := range plainRes.Allocation.MuMW {
		if plainRes.Allocation.MuMW[j] != secRes.Allocation.MuMW[j] {
			t.Fatalf("mu[%d]: secured %v vs plaintext %v (must be bit-identical)",
				j, secRes.Allocation.MuMW[j], plainRes.Allocation.MuMW[j])
		}
	}
}
