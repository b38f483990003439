package distsim

// Internal tests for the retry/backoff/dedup layer: they inject a fake
// timer source through Resilience.tf, which the exported surface
// deliberately does not expose.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock implements timerFactory. Timers never fire on their own; the
// test fires them explicitly and inspects the durations requested.
type fakeClock struct {
	mu     sync.Mutex
	timers []*fakeTimer
}

type fakeTimer struct {
	clock *fakeClock
	ch    chan time.Time
	durs  []time.Duration // creation duration followed by every Reset
}

func (c *fakeClock) newTimer(d time.Duration) waitTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &fakeTimer{clock: c, ch: make(chan time.Time)}
	ft.durs = append(ft.durs, d)
	c.timers = append(c.timers, ft)
	return ft
}

func (c *fakeClock) timer(k int) *fakeTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers[k]
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }
func (t *fakeTimer) Stop()               {}
func (t *fakeTimer) Reset(d time.Duration) {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.durs = append(t.durs, d)
}

// fire blocks until the wait loop consumes the tick, synchronizing the
// test with the receiver.
func (t *fakeTimer) fire() { t.ch <- time.Time{} }

func (t *fakeTimer) requested() []time.Duration {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	return append([]time.Duration(nil), t.durs...)
}

func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	pol := Resilience{RetryInterval: 10 * time.Millisecond, Seed: 7}.withDefaults()
	base := float64(pol.RetryInterval)
	for attempt := 0; attempt < 5; attempt++ {
		d := pol.backoff("fe-2", 13, attempt)
		if d != pol.backoff("fe-2", 13, attempt) {
			t.Fatalf("backoff attempt %d not deterministic", attempt)
		}
		nominal := base
		for k := 0; k < attempt; k++ {
			nominal *= pol.BackoffFactor
		}
		lo := time.Duration(nominal * (1 - pol.JitterFrac))
		hi := time.Duration(nominal * (1 + pol.JitterFrac))
		if d < lo || d > hi {
			t.Fatalf("backoff attempt %d = %v outside jitter band [%v, %v]", attempt, d, lo, hi)
		}
	}
	if pol.backoff("fe-2", 13, 1) == pol.backoff("dc-0", 13, 1) &&
		pol.backoff("fe-2", 14, 1) == pol.backoff("dc-0", 14, 1) {
		t.Fatal("jitter does not vary with the agent identity")
	}
}

func TestPhaseRetriesWithBackoffUntilMessageArrives(t *testing.T) {
	tr := NewChanTransport([]string{"x", "coord"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	clock := &fakeClock{}
	pol := Resilience{RetryInterval: 10 * time.Millisecond, MaxRetries: 3, Seed: 1, tf: clock}
	pol = pol.withDefaults()
	mb, err := newMailbox(context.Background(), tr, "x", true)
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	ph := newPhase(mb, &pol, "x", 1, pol.MessageDeadline, func() error { retries++; return nil })
	defer ph.stop()

	type out struct {
		msg Message
		ok  bool
		err error
	}
	done := make(chan out, 1)
	go func() {
		m, ok, err := ph.recv(KindControl)
		done <- out{m, ok, err}
	}()

	retry := clock.timer(0) // newPhase creates retry first, degrade second
	// MaxRetries fires invoke onRetry and re-arm with the next backoff;
	// further fires are no-ops (the budget is spent).
	for k := 0; k < pol.MaxRetries+2; k++ {
		retry.fire()
	}
	if err := tr.Send("x", Message{From: "coord", Kind: KindControl, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || !res.ok {
		t.Fatalf("recv = (ok=%v, err=%v), want delivered message", res.ok, res.err)
	}
	if retries != pol.MaxRetries {
		t.Fatalf("onRetry ran %d times, want exactly MaxRetries=%d", retries, pol.MaxRetries)
	}
	durs := retry.requested()
	if len(durs) != 1+pol.MaxRetries {
		t.Fatalf("retry timer armed %d times, want %d", len(durs), 1+pol.MaxRetries)
	}
	for attempt, d := range durs {
		if want := pol.backoff("x", 1, attempt); d != want {
			t.Fatalf("retry arm %d = %v, want backoff %v", attempt, d, want)
		}
	}
}

func TestPhaseDegradeDeadlineExpires(t *testing.T) {
	tr := NewChanTransport([]string{"x"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	clock := &fakeClock{}
	pol := Resilience{tf: clock}.withDefaults()
	mb, err := newMailbox(context.Background(), tr, "x", true)
	if err != nil {
		t.Fatal(err)
	}
	ph := newPhase(mb, &pol, "x", 3, pol.MessageDeadline, nil)
	defer ph.stop()
	degrade := clock.timer(1)
	if got := degrade.requested()[0]; got != pol.MessageDeadline {
		t.Fatalf("degrade timer armed with %v, want MessageDeadline %v", got, pol.MessageDeadline)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok, err := ph.recv(KindAux)
		done <- ok && err == nil
	}()
	degrade.fire()
	if got := <-done; got {
		t.Fatal("recv returned a message after the degrade deadline fired")
	}
	// An expired phase answers immediately without waiting again.
	if _, ok, err := ph.recv(KindAux); ok || err != nil {
		t.Fatalf("expired phase recv = (ok=%v, err=%v), want (false, nil)", ok, err)
	}
}

func TestMailboxDeduplicatesAndSolicitsResend(t *testing.T) {
	tr := NewChanTransport([]string{"x"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	clock := &fakeClock{}
	pol := Resilience{tf: clock}.withDefaults()
	mb, err := newMailbox(context.Background(), tr, "x", true)
	if err != nil {
		t.Fatal(err)
	}
	var dups []Message
	mb.onDup = func(m Message) { dups = append(dups, m) }

	send := func(iter int) {
		t.Helper()
		if err := tr.Send("x", Message{From: "fe-0", Kind: KindRouting, Iter: iter}); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	ph := newPhase(mb, &pol, "x", 1, pol.MessageDeadline, nil)
	if _, ok, err := ph.recv(KindRouting); !ok || err != nil {
		t.Fatalf("first delivery not received: ok=%v err=%v", ok, err)
	}
	ph.stop()

	// A retransmission of the consumed iterate is suppressed and surfaced
	// to the duplicate hook; the next fresh iterate still gets through.
	send(1)
	send(2)
	ph = newPhase(mb, &pol, "x", 2, pol.MessageDeadline, nil)
	m, ok, err := ph.recv(KindRouting)
	ph.stop()
	if !ok || err != nil || m.Iter != 2 {
		t.Fatalf("fresh iterate after duplicate: msg=%+v ok=%v err=%v", m, ok, err)
	}
	if len(dups) != 1 || dups[0].Iter != 1 {
		t.Fatalf("duplicate hook saw %+v, want exactly the iter-1 retransmission", dups)
	}

	// skipTo (degrading past a message) turns its late arrival into a
	// duplicate as well.
	mb.skipTo("fe-0", KindRouting, 3)
	send(3)
	send(4)
	ph = newPhase(mb, &pol, "x", 4, pol.MessageDeadline, nil)
	m, ok, err = ph.recv(KindRouting)
	ph.stop()
	if !ok || err != nil || m.Iter != 4 {
		t.Fatalf("post-skip iterate: msg=%+v ok=%v err=%v", m, ok, err)
	}
	if len(dups) != 2 || dups[1].Iter != 3 {
		t.Fatalf("skipped message not treated as duplicate: %+v", dups)
	}
}

// sendLog records every transmission for retrier assertions.
type sendLog struct {
	mu    sync.Mutex
	sends []outRec
}

func (s *sendLog) Send(to string, m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sends = append(s.sends, outRec{to: to, m: m})
	return nil
}
func (s *sendLog) Inbox(string) (<-chan Message, error) { return nil, ErrUnknownAgent }
func (s *sendLog) Close() error                         { return nil }

func (s *sendLog) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sends)
}

func TestRetrierResendAndRoundPruning(t *testing.T) {
	log := &sendLog{}
	ret := &retrier{t: log}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ret.send("dc-0", Message{From: "fe-0", Kind: KindRouting, Iter: 1}))
	must(ret.send("dc-1", Message{From: "fe-0", Kind: KindRouting, Iter: 1}))
	must(ret.send("coord", Message{From: "fe-0", Kind: KindReport, Iter: 1}))
	if log.count() != 3 {
		t.Fatalf("recorded sends transmitted %d times, want 3", log.count())
	}

	// Resend retransmits exactly the matching record.
	must(ret.resend("dc-1", KindRouting, 1))
	if log.count() != 4 {
		t.Fatalf("resend transmitted %d total, want 4", log.count())
	}
	last := log.sends[len(log.sends)-1]
	if last.to != "dc-1" || last.m.Kind != KindRouting || last.m.Iter != 1 {
		t.Fatalf("resend retransmitted %+v", last)
	}

	// Two rounds are retained: after NewRound(2), iteration-1 records are
	// still solicitable; after NewRound(3) they are pruned and Resend is a
	// silent no-op.
	ret.newRound(2)
	must(ret.resend("dc-0", KindRouting, 1))
	if log.count() != 5 {
		t.Fatalf("previous-round resend transmitted %d total, want 5", log.count())
	}
	ret.newRound(3)
	must(ret.resend("dc-0", KindRouting, 1))
	if log.count() != 5 {
		t.Fatalf("pruned resend still transmitted: %d total, want 5", log.count())
	}
}

// TestPhasePlainTimeoutBoundsEachWait: under the plain policy the wait
// bounds each recv, not the phase, a wait past it fails with ErrTimeout,
// and the mailbox keeps no floors (a repeated iterate is delivered again).
func TestPhasePlainTimeoutBoundsEachWait(t *testing.T) {
	tr := NewChanTransport([]string{"x"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	mb, err := newMailbox(context.Background(), tr, "x", false)
	if err != nil {
		t.Fatal(err)
	}
	const wait = 400 * time.Millisecond
	ph := newPhase(mb, nil, "x", 1, wait, nil)
	defer ph.stop()
	routing := Message{From: "fe-0", Kind: KindRouting, Iter: 1}
	sent := make(chan error, 2)
	go func() {
		for k := 0; k < 2; k++ {
			time.Sleep(wait * 5 / 8)
			sent <- tr.Send("x", routing)
		}
	}()
	// The second message lands 5/4 of a wait after the phase opened.
	for k := 0; k < 2; k++ {
		if _, ok, err := ph.recv(KindRouting); !ok || err != nil {
			t.Fatalf("recv %d = (ok=%v, err=%v), want the delivered message", k, ok, err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := ph.recv(KindRouting); ok || !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv with nothing sent = (ok=%v, err=%v), want ErrTimeout", ok, err)
	}
}

// TestLinkRejectedMessagePolicy: a message the agent rejects fails a
// plain gather and is skipped by a resilient one.
func TestLinkRejectedMessagePolicy(t *testing.T) {
	tab := newIDTable(1, 1)
	for _, tc := range []struct {
		name string
		res  *Resilience
	}{{"plain", nil}, {"resilient", &Resilience{}}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewChanTransport(AllAgentIDs(1, 1), ChanOptions{})
			defer func() { _ = tr.Close() }()
			opts := RunOptions{Timeout: time.Second}
			if tc.res != nil {
				pol := tc.res.withDefaults()
				opts.Resilience = &pol
			}
			l, err := newLink(context.Background(), tr, tab, "fe-0", opts)
			if err != nil {
				t.Fatal(err)
			}
			// The resilient floors admit one aux per sender and round, so
			// the malformed and the well-formed message come from two.
			for _, m := range []Message{
				{From: "dc-1", Kind: KindAux, Iter: 1, Payload: []float64{1, 2}},
				{From: "dc-0", Kind: KindAux, Iter: 1, Payload: []float64{3}},
			} {
				if err := tr.Send("fe-0", m); err != nil {
					t.Fatal(err)
				}
			}
			var took []float64
			got, err := l.gather(KindAux, 1, 1, auxDeadlineFactor, nil, func(m Message) bool {
				if len(m.Payload) != 1 {
					return false
				}
				took = append(took, m.Payload[0])
				return true
			})
			if tc.res == nil {
				if err == nil || got != 0 {
					t.Fatalf("plain gather = (%d, %v), want an error for the malformed message", got, err)
				}
				return
			}
			if err != nil || got != 1 || len(took) != 1 || took[0] != 3 {
				t.Fatalf("resilient gather = (%d, %v) took %v, want the well-formed message", got, err, took)
			}
		})
	}
}

// TestPeersMarkDead: the coordinator's dead set round-trips through the
// control payload into the peers of the right kind, and an agent on the
// list learns it was declared dead.
func TestPeersMarkDead(t *testing.T) {
	dcs := newPeers([]int32{0, 2}, []string{"dc-0", "dc-1", "dc-2"}, "dc-")
	payload := deadMaskPayload([]string{"fe-1", "dc-2"})
	if err := dcs.markDead(payload, "fe-0"); err != nil {
		t.Fatal(err)
	}
	if dcs.dead[0] || dcs.dead[1] || !dcs.dead[2] {
		t.Fatalf("dead datacenters %v, want only dc-2", dcs.dead)
	}
	if live := dcs.open(); live != 1 {
		t.Fatalf("%d live feasible datacenters, want 1", live)
	}
	if err := dcs.markDead(payload, "fe-1"); !errors.Is(err, ErrDeclaredDead) {
		t.Fatalf("fe-1 on the dead list: got %v, want ErrDeclaredDead", err)
	}
}
