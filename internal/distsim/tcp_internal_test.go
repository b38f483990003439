package distsim

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// listenHub starts a plaintext hub on a loopback port; cfg supplies the
// remaining hub options.
func listenHub(cfg ListenConfig) (*TCPHub, error) {
	cfg.Addr = "127.0.0.1:0"
	return Listen(context.Background(), cfg)
}

// dialNode connects a plaintext v1 node hosting ids to the hub at addr.
// It sends no handshake bytes.
func dialNode(addr string, ids []string, buffer int) (*TCPNode, error) {
	ep, err := Dial(context.Background(), DialConfig{Addr: addr, AgentIDs: ids, Buffer: buffer})
	if err != nil {
		return nil, err
	}
	return ep.(*TCPNode), nil
}

// dialLookup connects a plaintext lookup client registered as name.
func dialLookup(addr, name string, onDecision func(Decision)) (*LookupClient, error) {
	ep, err := Dial(context.Background(), DialConfig{Addr: addr, LookupName: name, OnDecision: onDecision})
	if err != nil {
		return nil, err
	}
	return ep.(*LookupClient), nil
}

// collectConn is a net.Conn stub whose write half can be failed on
// demand, for driving connWriter error paths deterministically.
type collectConn struct {
	mu     sync.Mutex
	wrote  []byte
	failAt int // fail writes once len(wrote) would exceed this; <0 = never
	closed bool
}

var errInjected = errors.New("injected write failure")

func (c *collectConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.failAt >= 0 && len(c.wrote)+len(p) > c.failAt {
		return 0, errInjected
	}
	c.wrote = append(c.wrote, p...)
	return len(p), nil
}

func (c *collectConn) Read(p []byte) (int, error) { return 0, io.EOF }
func (c *collectConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *collectConn) LocalAddr() net.Addr              { return nil }
func (c *collectConn) RemoteAddr() net.Addr             { return nil }
func (c *collectConn) SetDeadline(time.Time) error      { return nil }
func (c *collectConn) SetReadDeadline(time.Time) error  { return nil }
func (c *collectConn) SetWriteDeadline(time.Time) error { return nil }

func frameFor(to string, m Message) *frameBuf {
	fb := getFrame()
	fb.b = appendFrame(fb.b, to, &m)
	return fb
}

// TestConnWriterCoalesces checks that a burst of enqueued records reaches
// the socket and is accounted as batched flushes.
func TestConnWriterCoalesces(t *testing.T) {
	conn := &collectConn{failAt: -1}
	var counters transportCounters
	cw := newConnWriter(conn, 64, &counters, nil)
	const burst = 50
	var want int
	for k := 0; k < burst; k++ {
		fb := frameFor("fe-0", Message{Kind: KindAux, Iter: k, From: "dc-0", Payload: []float64{float64(k)}})
		want += len(fb.b)
		if err := cw.enqueue(fb); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := counters.snapshot()
		if st.MessagesSent == burst {
			if int(st.BytesSent) != want {
				t.Fatalf("bytes sent %d want %d", st.BytesSent, want)
			}
			if st.Flushes == 0 || st.Flushes > burst {
				t.Fatalf("flushes %d outside (0, %d]", st.Flushes, burst)
			}
			if st.MaxBatch == 0 {
				t.Fatal("max batch not recorded")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer drained %d of %d messages", st.MessagesSent, burst)
		}
		time.Sleep(time.Millisecond)
	}
	cw.close(ErrClosed)
	if err := cw.enqueue(frameFor("fe-0", Message{Kind: KindAux, From: "dc-0"})); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
}

// TestConnWriterFailureHandsBackUnsent verifies the onFail hook receives
// records that were enqueued but never written — the mechanism the hub
// uses to requeue messages for a reconnecting node.
func TestConnWriterFailureHandsBackUnsent(t *testing.T) {
	conn := &collectConn{failAt: 0} // every write fails
	var counters transportCounters
	got := make(chan []*frameBuf, 1)
	cw := newConnWriter(conn, 64, &counters, func(unsent []*frameBuf) {
		got <- unsent
	})
	fb := frameFor("dc-3", Message{Kind: KindRouting, Iter: 7, From: "fe-1", Payload: []float64{1, 2, 3}})
	wantBytes := append([]byte(nil), fb.b...)
	if err := cw.enqueue(fb); err != nil {
		t.Fatal(err)
	}
	select {
	case unsent := <-got:
		if len(unsent) != 1 {
			t.Fatalf("got %d unsent records, want 1", len(unsent))
		}
		if string(unsent[0].b) != string(wantBytes) {
			t.Fatal("unsent record bytes mangled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("onFail never called")
	}
	// The writer is dead: enqueue reports an ErrClosed-matching error
	// that preserves the cause.
	err := cw.enqueue(frameFor("dc-3", Message{Kind: KindAux, From: "fe-1"}))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after failure: %v", err)
	}
}

// TestHubRequeuesOnDeadRoute exercises TCPHub.route's failure path
// directly: a registered route whose writer is already dead must not
// swallow the record — it is requeued as pending and drained when a
// fresh connection registers the destination.
func TestHubRequeuesOnDeadRoute(t *testing.T) {
	h := &TCPHub{conns: make(map[net.Conn]*hubConn)}
	h.initShards(defaultRouteShards)

	// A dead connection registered for dc-0.
	deadConn := &collectConn{failAt: -1}
	dead := &hubConn{}
	dead.cw = newConnWriter(deadConn, 4, &h.counters, func(unsent []*frameBuf) {
		h.dropConn(dead)
		for _, fb := range unsent {
			h.requeueRecord(fb)
		}
	})
	h.register(dead, []string{"dc-0"})
	dead.cw.close(net.ErrClosed) // writer gone; route entry still present

	msg := Message{Kind: KindRouting, Iter: 3, From: "fe-0", Payload: []float64{0, 1.5, 2.5}}
	h.route(frameFor("dc-0", msg), false)

	idx, ok := agentIndex("dc-0")
	if !ok {
		t.Fatal("dc-0 not standard")
	}
	sh, _ := h.shardOf(idx)
	sh.mu.RLock()
	pending := len(sh.pending[idx])
	sh.mu.RUnlock()
	if pending != 1 {
		t.Fatalf("pending records for dc-0: %d, want 1", pending)
	}

	// A replacement connection registers dc-0: the pending record drains.
	liveConn := &collectConn{failAt: -1}
	live := &hubConn{}
	live.cw = newConnWriter(liveConn, 4, &h.counters, nil)
	h.register(live, []string{"dc-0"})

	deadline := time.Now().Add(2 * time.Second)
	for {
		liveConn.mu.Lock()
		n := len(liveConn.wrote)
		liveConn.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued record never delivered to replacement conn")
		}
		time.Sleep(time.Millisecond)
	}
	sh.mu.RLock()
	pending = len(sh.pending[idx])
	sh.mu.RUnlock()
	if pending != 0 {
		t.Fatalf("pending not drained: %d records left", pending)
	}
	live.cw.close(ErrClosed)
}

// TestHubAddPendingForwardsOnceRouted replays the park race
// deterministically: route found no target, the destination registered
// (draining an empty pending queue), and only then did the record reach
// addPending. The record must be forwarded to the new route, not parked
// where no later registration would ever drain it.
func TestHubAddPendingForwardsOnceRouted(t *testing.T) {
	for _, id := range []string{"dc-0", "custom-agent"} {
		t.Run(id, func(t *testing.T) {
			h := &TCPHub{conns: make(map[net.Conn]*hubConn)}
			h.initShards(defaultRouteShards)
			conn := &collectConn{failAt: -1}
			hc := &hubConn{}
			hc.cw = newConnWriter(conn, 4, &h.counters, nil)
			defer hc.cw.close(ErrClosed)
			h.register(hc, []string{id})

			fb := frameFor(id, Message{Kind: KindAux, Iter: 1, From: "fe-0", Payload: []float64{2.5}})
			_, body := splitRecord(fb.b)
			_, named, toIdx, to, err := peekRoute(body)
			if err != nil {
				t.Fatal(err)
			}
			h.addPending(named, toIdx, to, fb.b)
			want := len(fb.b)
			putFrame(fb)

			sh := h.shardFor(named, toIdx, to)
			sh.mu.RLock()
			parked := len(sh.pending[toIdx]) + len(sh.namedPending[string(to)])
			sh.mu.RUnlock()
			if parked != 0 {
				t.Fatalf("%d records parked for a registered destination", parked)
			}
			deadline := time.Now().Add(2 * time.Second)
			for {
				conn.mu.Lock()
				n := len(conn.wrote)
				conn.mu.Unlock()
				if n == want {
					break
				}
				if n > want || time.Now().After(deadline) {
					t.Fatalf("wrote %d bytes to the registered route, want the %d-byte record", n, want)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
