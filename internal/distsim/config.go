package distsim

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/telemetry/tracing"
)

// This file is the package's unified transport surface. Every way of
// standing up or joining the wire — root hub, regional sub-hub, solver
// node, lookup client — goes through two entry points:
//
//	Listen(ctx, ListenConfig) (*TCPHub, error)
//	Dial(ctx, DialConfig)     (Endpoint, error)
//
// with transport security (TLS, token auth, wire version) carried by the
// SecurityConfig block embedded in both.

// ListenConfig configures a hub: its listen address, routing table,
// place in a hub tree, serving plane and transport security.
type ListenConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0"). Required.
	Addr string
	// IdleTimeout drops a connection that produces no records (not even
	// heartbeat pings) for this long. Zero disables the check —
	// connections then linger until the peer closes or the hub shuts down.
	IdleTimeout time.Duration
	// RouteShards is the number of routing-table shards (power of two;
	// default 16). Raise it on hubs serving many concurrent connections to
	// cut registration/forwarding contention.
	RouteShards int
	// Parent, when non-empty, is the address of the parent hub: this hub
	// becomes a regional sub-hub. Records whose destination is not
	// registered locally travel up the parent link (batched); local
	// registrations propagate upward so the parent routes the ids down.
	Parent string
	// Region tags the sub-hub in its parent handshake (informational).
	Region int
	// ParentSecurity configures the dial up the parent link. Nil dials
	// the parent with a zero SecurityConfig (plaintext v1). Requires
	// Parent.
	ParentSecurity *SecurityConfig
	// Decider, when non-nil, turns the hub into a serving control plane:
	// lookup records arriving on node links are answered inline with
	// decision records, and cpstats requests with the decider's statistics
	// vector. See the serving-plane record docs in serve.go.
	Decider Decider
	// Tracer, when non-nil, records spans for traced lookups and
	// forwarding events for traced records into this flight recorder.
	// Untraced traffic costs one branch; nil disables tracing entirely.
	Tracer *tracing.Recorder
	// Security is the accept-side transport security: a TLS server
	// config (mutual TLS via ClientAuth/ClientCAs), the expected auth
	// token, and the accepted wire-version range.
	Security SecurityConfig
}

// Validate checks the configuration without touching the network.
func (c *ListenConfig) Validate() error {
	if c.Addr == "" {
		return errors.New("distsim: listen: Addr is required")
	}
	if s := c.RouteShards; s != 0 && (s < 1 || s&(s-1) != 0) {
		return fmt.Errorf("distsim: hub route shards must be a power of two, got %d", s)
	}
	if err := c.Security.validate(); err != nil {
		return err
	}
	if c.ParentSecurity != nil {
		if c.Parent == "" {
			return errors.New("distsim: listen: ParentSecurity set without Parent")
		}
		if err := c.ParentSecurity.validate(); err != nil {
			return fmt.Errorf("parent link: %w", err)
		}
	}
	return nil
}

// Listen starts a hub serving cfg.Addr until Close. With cfg.Parent set
// the hub joins a tree as a regional sub-hub, dialing upward under
// cfg.ParentSecurity. The context bounds only connection setup (the
// listening socket, and the parent dial + handshake); the returned hub
// outlives it.
func Listen(ctx context.Context, cfg ListenConfig) (*TCPHub, error) {
	if ctx == nil {
		ctx = context.Background() //ufc:ctx nil-context convenience: the caller passed no root, so setup gets an unbounded one
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RouteShards == 0 {
		cfg.RouteShards = defaultRouteShards
	}
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("distsim: hub listen: %w", err)
	}
	if cfg.Security.TLS != nil {
		ln = tls.NewListener(ln, cfg.Security.TLS)
	}
	h := &TCPHub{ln: ln, cfg: cfg, conns: make(map[net.Conn]*hubConn), tracer: cfg.Tracer}
	h.initShards(cfg.RouteShards)
	if cfg.Parent != "" {
		psec := cfg.ParentSecurity
		if psec == nil {
			psec = &SecurityConfig{}
		}
		if err := h.dialParent(ctx, cfg.Parent, cfg.Region, psec); err != nil {
			_ = ln.Close() //ufc:discard the parent dial error below is the failure being reported
			return nil, err
		}
	}
	h.wg.Add(1)
	//ufc:ctx the hub outlives the setup context by design; its lifetime is bounded by Close
	go h.acceptLoop()
	return h, nil
}

// DialConfig configures a client connection to a hub: either a solver
// node hosting agent inboxes (AgentIDs) or a serving-plane lookup
// client (LookupName) — exactly one of the two.
type DialConfig struct {
	// Addr is the hub address. Required.
	Addr string
	// AgentIDs are the agent ids hosted by this node; the dial returns a
	// *TCPNode. Mutually exclusive with LookupName.
	AgentIDs []string
	// Buffer is the per-agent inbox capacity (default 64). Node mode only.
	Buffer int
	// HeartbeatInterval and HeartbeatMiss configure link liveness (see
	// NodeOptions). Node mode only.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the number of missed heartbeat windows tolerated
	// (default 3). Node mode only.
	HeartbeatMiss int
	// Tracer, when non-nil, records send/recv events for traced
	// messages. Node mode only.
	Tracer *tracing.Recorder
	// LookupName registers a serving-plane lookup client under this id;
	// the dial returns a *LookupClient. Mutually exclusive with AgentIDs.
	LookupName string
	// OnDecision receives decision records on the lookup client's read
	// goroutine. Lookup mode only; may also be set on the client after
	// the dial, before its first Lookup.
	OnDecision func(Decision)
	// Security is the dial-side transport security: a TLS client config,
	// the auth token presented in the handshake, and the offered
	// wire-version range.
	Security SecurityConfig
}

// Validate checks the configuration without touching the network.
func (c *DialConfig) Validate() error {
	if c.Addr == "" {
		return errors.New("distsim: dial: Addr is required")
	}
	node, lookup := len(c.AgentIDs) > 0, c.LookupName != ""
	switch {
	case node && lookup:
		return errors.New("distsim: dial: AgentIDs and LookupName are mutually exclusive")
	case !node && !lookup:
		return errors.New("distsim: dial: one of AgentIDs or LookupName is required")
	}
	if node && c.OnDecision != nil {
		return errors.New("distsim: dial: OnDecision requires LookupName")
	}
	if c.Buffer < 0 {
		return fmt.Errorf("distsim: dial: Buffer %d: must be >= 0", c.Buffer)
	}
	if c.HeartbeatInterval < 0 {
		return fmt.Errorf("distsim: dial: HeartbeatInterval %v: must be >= 0", c.HeartbeatInterval)
	}
	return c.Security.validate()
}

// Endpoint is a client connection returned by Dial: a *TCPNode (agent
// mode) or a *LookupClient (lookup mode). Callers needing the concrete
// surface type-assert, mirroring net.Conn practice. The interface is
// sealed — only this package's transports implement it.
type Endpoint interface {
	// Close tears the connection down after flushing queued writes.
	Close() error
	// Stats snapshots the endpoint's transport counters.
	Stats() TransportStats
	// WireVersion reports the negotiated protocol version
	// (WireVersion1 or WireVersion2).
	WireVersion() int

	sealedEndpoint()
}

var (
	_ Endpoint = (*TCPNode)(nil)
	_ Endpoint = (*LookupClient)(nil)
)

// Dial connects to a hub, runs TLS and the wire handshake as configured,
// and registers the endpoint. The context bounds connection setup; the
// returned endpoint outlives it. Handshake failures surface the typed
// sentinels ErrVersionMismatch, ErrAuthFailed, ErrHandshakeTimeout and
// ErrHandshake.
func Dial(ctx context.Context, cfg DialConfig) (Endpoint, error) {
	if ctx == nil {
		ctx = context.Background() //ufc:ctx nil-context convenience: the caller passed no root, so setup gets an unbounded one
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	conn, ver, err := dialSecure(ctx, cfg.Addr, &cfg.Security)
	if err != nil {
		return nil, err
	}
	if cfg.LookupName != "" {
		//ufc:ctx the endpoint outlives the dial context by design; its lifetime is bounded by Close
		return newLookupClient(conn, ver, cfg.LookupName, cfg.OnDecision)
	}
	//ufc:ctx the endpoint outlives the dial context by design; its lifetime is bounded by Close
	return newTCPNode(conn, ver, &cfg)
}

// dialSecure establishes one secured, version-negotiated connection: TCP
// dial, optional TLS client handshake, then the wire handshake. Every
// phase is bounded by the security config's handshake timeout and by ctx.
func dialSecure(ctx context.Context, addr string, sec *SecurityConfig) (net.Conn, int, error) {
	d := net.Dialer{Timeout: sec.handshakeTimeout()}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, fmt.Errorf("distsim: dial %s: %w", addr, err)
	}
	if sec.TLS != nil {
		tc := sec.TLS
		if tc.ServerName == "" && !tc.InsecureSkipVerify {
			if host, _, herr := net.SplitHostPort(addr); herr == nil {
				tc = tc.Clone()
				tc.ServerName = host
			}
		}
		tconn := tls.Client(conn, tc)
		hctx, cancel := context.WithTimeout(ctx, sec.handshakeTimeout())
		err = tconn.HandshakeContext(hctx)
		cancel()
		if err != nil {
			_ = conn.Close() //ufc:discard the TLS handshake error below is the failure being reported
			return nil, 0, tlsHandshakeError(err)
		}
		conn = tconn
	}
	ver, err := clientHandshake(conn, sec)
	if err != nil {
		_ = conn.Close() //ufc:discard the wire handshake error below is the failure being reported
		return nil, 0, err
	}
	return conn, ver, nil
}

// tlsHandshakeError maps a TLS client-handshake failure to the package's
// typed sentinels: certificate verification failures are authentication
// errors, deadline expiries are timeouts, the rest (alerts, protocol
// errors) generic handshake failures.
func tlsHandshakeError(err error) error {
	var cve *tls.CertificateVerificationError
	if errors.As(err, &cve) {
		return fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("%w: tls: %v", ErrHandshakeTimeout, err)
	}
	return fmt.Errorf("%w: tls: %v", ErrHandshake, err)
}
