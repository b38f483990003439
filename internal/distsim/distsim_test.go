package distsim_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/model"
	"repro/internal/utility"
)

func testInstance(t *testing.T, seed int64) *core.Instance {
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

// listenHub starts a plaintext hub on a loopback port; cfg supplies the
// remaining hub options.
func listenHub(cfg distsim.ListenConfig) (*distsim.TCPHub, error) {
	cfg.Addr = "127.0.0.1:0"
	return distsim.Listen(context.Background(), cfg)
}

// dialNode connects a plaintext v1 node hosting ids to the hub at addr.
// It sends no handshake bytes.
func dialNode(addr string, ids []string, buffer int) (*distsim.TCPNode, error) {
	ep, err := distsim.Dial(context.Background(), distsim.DialConfig{Addr: addr, AgentIDs: ids, Buffer: buffer})
	if err != nil {
		return nil, err
	}
	return ep.(*distsim.TCPNode), nil
}

func runDistributed(t *testing.T, inst *core.Instance, chanOpts distsim.ChanOptions) *distsim.Result {
	t.Helper()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), chanOpts)
	defer func() { _ = tr.Close() }()
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{}, tr)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return res
}

func TestDistributedMatchesSequentialExactly(t *testing.T) {
	inst := testInstance(t, 1)
	seqAlloc, seqBD, seqStats, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := runDistributed(t, inst, distsim.ChanOptions{Seed: 1})
	if res.Stats.Iterations != seqStats.Iterations {
		t.Errorf("iterations: distributed %d vs sequential %d", res.Stats.Iterations, seqStats.Iterations)
	}
	for i := range seqAlloc.Lambda {
		for j := range seqAlloc.Lambda[i] {
			if seqAlloc.Lambda[i][j] != res.Allocation.Lambda[i][j] {
				t.Fatalf("lambda[%d][%d]: distributed %v vs sequential %v (must be bit-identical)",
					i, j, res.Allocation.Lambda[i][j], seqAlloc.Lambda[i][j])
			}
		}
	}
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC: distributed %v vs sequential %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

func TestDistributedWithDelaysAndReordering(t *testing.T) {
	inst := testInstance(t, 2)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := runDistributed(t, inst, distsim.ChanOptions{
		Seed:     7,
		MaxDelay: 200 * time.Microsecond,
	})
	// Delays reorder deliveries but the round structure makes the result
	// identical.
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC with delays: %v vs %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

func TestDistributedWithTransientLoss(t *testing.T) {
	inst := testInstance(t, 3)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := runDistributed(t, inst, distsim.ChanOptions{
		Seed:            11,
		MaxDelay:        100 * time.Microsecond,
		LossProb:        0.05,
		RetransmitDelay: time.Millisecond,
	})
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC with loss: %v vs %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

func TestDistributedOverTCP(t *testing.T) {
	inst := testInstance(t, 4)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	node, err := dialNode(hub.Addr(), distsim.AllAgentIDs(m, n), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Timeout: time.Minute}, node)
	if err != nil {
		t.Fatalf("TCP run: %v", err)
	}
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC over TCP: %v vs %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

func TestDistributedMultiNodeTCP(t *testing.T) {
	// Front-ends, datacenters and the coordinator on three separate nodes.
	inst := testInstance(t, 5)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	all := distsim.AllAgentIDs(m, n)
	feIDs, dcIDs, coordIDs := all[:m], all[m:m+n], all[m+n:]

	feNode, err := dialNode(hub.Addr(), feIDs, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = feNode.Close() }()
	dcNode, err := dialNode(hub.Addr(), dcIDs, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dcNode.Close() }()
	coNode, err := dialNode(hub.Addr(), coordIDs, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coNode.Close() }()

	// A routing façade: sends go out through the sender-side node. Since
	// Run uses a single Transport, wrap the three nodes: Send tries the
	// hub through any node (they all reach the hub), Inbox picks the node
	// hosting the id.
	tr := &multiNode{nodes: []*distsim.TCPNode{feNode, dcNode, coNode}}
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Timeout: time.Minute}, tr)
	if err != nil {
		t.Fatalf("multi-node TCP run: %v", err)
	}
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC multi-node: %v vs %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

// multiNode fans a Transport across several TCP nodes for the multi-node
// test topology.
type multiNode struct {
	nodes []*distsim.TCPNode
}

func (m *multiNode) Send(to string, msg distsim.Message) error {
	return m.nodes[0].Send(to, msg)
}

func (m *multiNode) Inbox(id string) (<-chan distsim.Message, error) {
	for _, n := range m.nodes {
		if ch, err := n.Inbox(id); err == nil {
			return ch, nil
		}
	}
	return nil, distsim.ErrUnknownAgent
}

func (m *multiNode) Close() error {
	var first error
	for _, n := range m.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func TestTransportErrors(t *testing.T) {
	tr := distsim.NewChanTransport([]string{"a"}, distsim.ChanOptions{})
	if err := tr.Send("nope", distsim.Message{}); !errors.Is(err, distsim.ErrUnknownAgent) {
		t.Errorf("unknown send: %v", err)
	}
	if _, err := tr.Inbox("nope"); !errors.Is(err, distsim.ErrUnknownAgent) {
		t.Errorf("unknown inbox: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("a", distsim.Message{}); !errors.Is(err, distsim.ErrClosed) {
		t.Errorf("closed send: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestRunRejectsNilContext pins the removal of the old silent
// nil → context.Background() promotion: a nil context detached the whole
// protocol from caller cancellation, so it is now a caller bug.
func TestRunRejectsNilContext(t *testing.T) {
	inst := testInstance(t, 6)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{})
	defer func() { _ = tr.Close() }()
	//nolint:staticcheck // passing a nil context is the point of the test
	if _, err := distsim.Run(nil, inst, distsim.RunOptions{}, tr); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("Run(nil ctx) = %v, want ErrBadOptions", err)
	}
}

func TestRunTimesOutCleanly(t *testing.T) {
	inst := testInstance(t, 6)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	// Register only the protocol agents but swallow coordinator traffic by
	// using a tiny timeout: agents cannot complete a round.
	tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n)[:m+n], distsim.ChanOptions{})
	defer func() { _ = tr.Close() }()
	_, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Timeout: 50 * time.Millisecond}, tr)
	if err == nil {
		t.Fatal("expected an error with missing coordinator inbox")
	}
}

func TestDistributedGridOnlyStrategy(t *testing.T) {
	inst := testInstance(t, 8)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{Seed: 3})
	defer func() { _ = tr.Close() }()
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{
		Solver: core.Options{Strategy: core.GridOnly},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for j, mu := range res.Allocation.MuMW {
		if mu != 0 {
			t.Errorf("grid-only datacenter %d uses %g MW fuel cell", j, mu)
		}
	}
	if math.Abs(res.Breakdown.FuelCellUtilization) > 0 {
		t.Error("grid-only has nonzero fuel-cell utilization")
	}
}

func TestRunAgentsRejectsInvalidID(t *testing.T) {
	inst := testInstance(t, 9)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{})
	defer func() { _ = tr.Close() }()
	if _, err := distsim.RunAgents(context.Background(), inst, distsim.RunOptions{}, tr, []string{"fe-999"}); err == nil {
		t.Fatal("out-of-range front-end accepted")
	}
	if _, err := distsim.RunAgents(context.Background(), inst, distsim.RunOptions{}, tr, []string{"gremlin-1"}); err == nil {
		t.Fatal("unknown agent kind accepted")
	}
}

func TestRunAgentsSplitAcrossGoroutines(t *testing.T) {
	// Split the agents across two RunAgents calls sharing one transport,
	// mimicking a two-process deployment in-process.
	inst := testInstance(t, 10)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, n := inst.Cloud.M(), inst.Cloud.N()
	all := distsim.AllAgentIDs(m, n)
	tr := distsim.NewChanTransport(all, distsim.ChanOptions{Seed: 5})
	defer func() { _ = tr.Close() }()

	done := make(chan error, 1)
	go func() {
		// Front-end half runs "elsewhere"; returns nil result.
		res, err := distsim.RunAgents(context.Background(), inst, distsim.RunOptions{}, tr, all[:m])
		if err == nil && res != nil {
			err = errTestUnexpectedResult
		}
		done <- err
	}()
	res, err := distsim.RunAgents(context.Background(), inst, distsim.RunOptions{}, tr, all[m:])
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Breakdown.UFC != seqBD.UFC {
		t.Fatalf("split-agent UFC mismatch")
	}
}

var errTestUnexpectedResult = errors.New("non-coordinator RunAgents returned a result")

// TestSendAfterClose demands a consistent ErrClosed (not a raw socket or
// codec error) from Send after Close on every transport.
func TestSendAfterClose(t *testing.T) {
	msg := distsim.Message{Kind: distsim.KindReport, Iter: 1, From: "fe-0", Payload: []float64{1}}

	t.Run("chan", func(t *testing.T) {
		tr := distsim.NewChanTransport([]string{"fe-0", "coord"}, distsim.ChanOptions{})
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send("coord", msg); !errors.Is(err, distsim.ErrClosed) {
			t.Errorf("chan send after close: %v", err)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		hub, err := listenHub(distsim.ListenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = hub.Close() }()
		node, err := dialNode(hub.Addr(), []string{"fe-0", "coord"}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Send("coord", msg); err != nil {
			t.Fatalf("send before close: %v", err)
		}
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		if err := node.Send("coord", msg); !errors.Is(err, distsim.ErrClosed) {
			t.Errorf("tcp send after close: %v", err)
		}
		if err := node.Close(); err != nil {
			t.Errorf("double close: %v", err)
		}
	})
}

// TestChanTransportCloseCancelsDelayedSends pins the fix for Close
// blocking on in-flight fault-injected deliveries: with a retransmit
// delay of several seconds queued, Close must return almost immediately.
func TestChanTransportCloseCancelsDelayedSends(t *testing.T) {
	tr := distsim.NewChanTransport([]string{"a"}, distsim.ChanOptions{
		Seed:            1,
		LossProb:        1, // every send takes the delayed path
		RetransmitDelay: 10 * time.Second,
	})
	for k := 0; k < 8; k++ {
		if err := tr.Send("a", distsim.Message{Kind: distsim.KindReport, Iter: k}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("Close blocked %v on delayed deliveries", waited)
	}
}

// TestHubRedeliversAfterReconnect covers the hub's lost-route path end to
// end: a node hosting dc-0 dies, traffic for dc-0 queues as pending, and
// a reconnecting node hosting dc-0 drains it.
func TestHubRedeliversAfterReconnect(t *testing.T) {
	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()

	victim, err := dialNode(hub.Addr(), []string{"dc-0"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := dialNode(hub.Addr(), []string{"fe-0"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sender.Close() }()

	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	// Give the hub a moment to observe the disconnect and drop the route.
	time.Sleep(100 * time.Millisecond)

	want := distsim.Message{Kind: distsim.KindRouting, Iter: 9, From: "fe-0", Payload: []float64{0, 1.25, 2.5}}
	if err := sender.Send("dc-0", want); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the record reach the hub's pending queue

	replacement, err := dialNode(hub.Addr(), []string{"dc-0"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = replacement.Close() }()
	inbox, err := replacement.Inbox("dc-0")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-inbox:
		if got.Kind != want.Kind || got.Iter != want.Iter || got.From != want.From ||
			len(got.Payload) != len(want.Payload) || got.Payload[1] != want.Payload[1] {
			t.Fatalf("redelivered message %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending message never redelivered to reconnected node")
	}
}

// TestTCPNodeStats sanity-checks the transport counters against a run.
func TestTCPNodeStats(t *testing.T) {
	inst := testInstance(t, 12)
	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	node, err := dialNode(hub.Addr(), distsim.AllAgentIDs(m, n), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Timeout: time.Minute}, node)
	if err != nil {
		t.Fatal(err)
	}
	st := node.Stats()
	// Every iteration moves 2·M·N routing/aux + 2·(M+N) report/control
	// messages, plus finals and the hello.
	minMsgs := uint64(res.Stats.Iterations * (2*m*n + 2*(m+n)))
	if st.MessagesSent < minMsgs {
		t.Errorf("sent %d messages, expected at least %d", st.MessagesSent, minMsgs)
	}
	if st.MessagesReceived < minMsgs {
		t.Errorf("received %d messages, expected at least %d", st.MessagesReceived, minMsgs)
	}
	if st.BytesSent == 0 || st.BytesReceived == 0 || st.Flushes == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.MessagesSent > 0 && st.BytesSent/st.MessagesSent > 128 {
		t.Errorf("bytes/msg %d suspiciously large for the binary codec", st.BytesSent/st.MessagesSent)
	}
	hs := hub.Stats()
	if hs.MessagesReceived < minMsgs || hs.MessagesSent < minMsgs {
		t.Errorf("hub stats too low: %+v", hs)
	}
}

func TestRunFailsWhenPeerMissing(t *testing.T) {
	// Datacenter agents never start: the front-ends and coordinator must
	// time out with an error rather than hang.
	inst := testInstance(t, 11)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	all := distsim.AllAgentIDs(m, n)
	tr := distsim.NewChanTransport(all, distsim.ChanOptions{})
	defer func() { _ = tr.Close() }()
	partial := append(append([]string{}, all[:m]...), "coord")
	_, err := distsim.RunAgents(context.Background(), inst, distsim.RunOptions{Timeout: 100 * time.Millisecond}, tr, partial)
	if err == nil {
		t.Fatal("expected timeout with missing datacenter agents")
	}
}

// TestCloseFlushesPendingSends pins the graceful-close contract: sends
// are asynchronous (queued for the coalescing writer), so a node that
// Closes immediately after its last Send must still get every queued
// record onto the wire. A multi-process run depends on this — front-end
// nodes close as soon as they have sent their final reports, while the
// coordinator process is still waiting to receive them.
func TestCloseFlushesPendingSends(t *testing.T) {
	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	recv, err := dialNode(hub.Addr(), []string{"dc-0"}, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	send, err := dialNode(hub.Addr(), []string{"fe-0"}, 512)
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := recv.Inbox("dc-0")
	if err != nil {
		t.Fatal(err)
	}

	const burst = 200
	for k := 0; k < burst; k++ {
		if err := send.Send("dc-0", distsim.Message{
			Kind: distsim.KindFinal, Iter: 1, From: "fe-0",
			Payload: []float64{float64(k)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Close immediately: every queued record must still be delivered.
	if err := send.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < burst; k++ {
		select {
		case msg, ok := <-inbox:
			if !ok {
				t.Fatalf("inbox closed after %d of %d messages", k, burst)
			}
			if len(msg.Payload) != 1 || msg.Payload[0] != float64(k) {
				t.Fatalf("message %d out of order or corrupt: %+v", k, msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d messages sent before Close", k, burst)
		}
	}
}
