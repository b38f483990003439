// Package ufc is the public API of the repository: a library for studying
// fuel-cell generation in geo-distributed cloud services, reproducing
// "Fuel Cell Generation in Geo-Distributed Cloud Services: A Quantitative
// Study" (ICDCS 2014).
//
// The library models a cloud of N geo-distributed datacenters (each with a
// fuel-cell installation) fed by M front-end proxies, defines the UFC
// index — the operator's combined satisfaction from workload latency,
// energy cost and carbon emission — and maximizes it by jointly choosing
// per-datacenter fuel-cell output and geographic request routing with the
// paper's distributed 4-block ADM-G algorithm.
//
// Quick start:
//
//	inst, err := ufc.NewBuilder().
//		Datacenter("San Jose", 37.34, -121.89, 20000, 95, 0.30).
//		Datacenter("Dallas", 32.78, -96.80, 20000, 35, 0.55).
//		FrontEnd("Chicago", 41.88, -87.63, 12000).
//		Build()
//	alloc, breakdown, stats, err := ufc.Solve(ctx, inst, ufc.Options{})
//
// # Contexts
//
// Every solving entry point is context-first: Solve, SolveDistributed,
// RunDistributed, RunWeekComparison, SweepFuelCellPrice and SweepCarbonTax
// all take a context.Context as their first argument, checked once per
// ADM-G iteration (no allocation), so callers can cancel or deadline-bound
// any solve.
//
// See examples/ for runnable programs and cmd/experiments for the full
// reproduction of the paper's tables and figures.
package ufc

import (
	"context"
	"errors"
	"time"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/model"
	"repro/internal/utility"
)

// Core problem types, re-exported from the implementation packages.
type (
	// Instance is one time slot of the UFC maximization problem.
	Instance = core.Instance
	// Allocation is a joint routing and power decision.
	Allocation = core.Allocation
	// Breakdown decomposes the UFC of an allocation.
	Breakdown = core.Breakdown
	// Options configures the ADM-G solver.
	Options = core.Options
	// Stats reports solver behaviour.
	Stats = core.Stats
	// Strategy selects the allowed energy sources.
	Strategy = core.Strategy
	// FeasibilityReport quantifies constraint violations.
	FeasibilityReport = core.FeasibilityReport

	// Cloud is the static topology.
	Cloud = model.Cloud
	// Datacenter is a back-end site.
	Datacenter = model.Datacenter
	// FrontEnd is a front-end proxy server.
	FrontEnd = model.FrontEnd
	// Location is a point on Earth.
	Location = model.Location
	// PowerModel is the per-server power characterization.
	PowerModel = model.PowerModel

	// CostFunc is an emission cost function V_j.
	CostFunc = carbon.CostFunc
	// LinearTax is a flat carbon tax.
	LinearTax = carbon.LinearTax
	// CapAndTrade is a permit-based emission cost.
	CapAndTrade = carbon.CapAndTrade
	// SteppedTax is a progressive piecewise-linear tax.
	SteppedTax = carbon.SteppedTax
	// QuadraticCost is an offset program with growing marginal price.
	QuadraticCost = carbon.QuadraticCost

	// UtilityFunc is a latency-utility function U.
	UtilityFunc = utility.Func
	// QuadraticUtility is the paper's Eq. (2) utility.
	QuadraticUtility = utility.Quadratic
	// LinearUtility decreases linearly with latency-weighted traffic.
	LinearUtility = utility.Linear
	// ExponentialUtility punishes long latencies sharply.
	ExponentialUtility = utility.Exponential

	// Resilience configures the resilient failure policy of a distributed
	// run: retry backoff, degrade deadlines, staleness cap and liveness
	// thresholds.
	Resilience = distsim.Resilience
	// FaultPlan is a seeded, deterministic chaos schedule applied to the
	// distributed transport (drops, duplicates, delays, partitions,
	// crashes).
	FaultPlan = distsim.FaultPlan
	// LinkFault is one per-link fault rule of a FaultPlan.
	LinkFault = distsim.LinkFault
	// Partition isolates agents for an iteration window.
	Partition = distsim.Partition
	// Crash silences an agent from an iteration onward.
	Crash = distsim.Crash
	// FaultStats counts the faults a plan actually injected.
	FaultStats = distsim.FaultStats
	// Degradation reports how a resilient distributed run deviated from
	// fault-free operation.
	Degradation = distsim.Degradation
	// DistributedResult is the full outcome of a distributed run,
	// including any Degradation.
	DistributedResult = distsim.Result
)

// Strategies.
const (
	// Hybrid coordinates grid power with fuel cells (the paper's
	// proposal).
	Hybrid = core.Hybrid
	// GridOnly forbids fuel cells.
	GridOnly = core.GridOnly
	// FuelCellOnly forbids grid power.
	FuelCellOnly = core.FuelCellOnly
)

// Solve maximizes UFC for the instance with the distributed 4-block ADM-G
// algorithm (run in-process) and returns a feasible allocation, its UFC
// breakdown and solver statistics. ctx is checked once per iteration — a
// cancelled or expired context aborts the solve with its error.
func Solve(ctx context.Context, inst *Instance, opts Options) (*Allocation, Breakdown, *Stats, error) {
	return core.SolveContext(ctx, inst, opts)
}

// Evaluate computes the UFC breakdown of an arbitrary allocation.
func Evaluate(inst *Instance, alloc *Allocation) Breakdown {
	return core.Evaluate(inst, alloc)
}

// CheckFeasibility measures an allocation's constraint violations.
func CheckFeasibility(inst *Instance, alloc *Allocation) FeasibilityReport {
	return core.CheckFeasibility(inst, alloc)
}

// Improvement returns the relative UFC improvement of x over y (the
// paper's I_hg / I_hf / I_fg metrics).
func Improvement(x, y Breakdown) float64 { return core.Improvement(x, y) }

// NewCloud builds a topology from datacenters and front-ends.
func NewCloud(dcs []Datacenter, fes []FrontEnd) (*Cloud, error) {
	return model.NewCloud(dcs, fes)
}

// DefaultPowerModel is the paper's server power model (100 W idle, 200 W
// peak, PUE 1.2).
func DefaultPowerModel() PowerModel { return model.DefaultPowerModel() }

// NewSteppedTax validates and builds a progressive piecewise-linear carbon
// tax (rates must be non-decreasing for convexity).
func NewSteppedTax(thresholds, rates []float64) (SteppedTax, error) {
	return carbon.NewSteppedTax(thresholds, rates)
}

// Transport choices for DistOptions.
const (
	// TransportChan runs the protocol over the in-memory channel
	// transport (the default).
	TransportChan = "chan"
	// TransportTCP pushes every message through a real TCP hub speaking
	// the binary wire codec; with an empty HubAddr a loopback hub is spun
	// up for the run and torn down afterwards.
	TransportTCP = "tcp"
)

// WireSecurity configures transport security for TransportTCP runs and
// hub listeners: optional TLS (mutual when certificate verification is
// configured on both sides), a shared auth token carried in the v2
// handshake, and wire-version pinning. The zero value is the legacy
// plaintext v1 wire.
type WireSecurity = distsim.SecurityConfig

// Wire protocol versions for WireSecurity.WireVersion.
const (
	// WireVersionAuto negotiates: v1 for a plain dial, v2 when TLS or a
	// token demands it.
	WireVersionAuto = distsim.WireVersionAuto
	// WireVersion1 pins the legacy plaintext framing (no handshake bytes).
	WireVersion1 = distsim.WireVersion1
	// WireVersion2 pins the versioned handshake.
	WireVersion2 = distsim.WireVersion2
)

// HubConfig configures a standalone hub started with ListenHub.
type HubConfig = distsim.ListenConfig

// ListenHub starts a TCP hub (optionally secured, optionally a serving
// control plane via cfg.Decider) that distributed runs and lookup
// clients connect to. Close the returned hub to stop it.
func ListenHub(ctx context.Context, cfg HubConfig) (*distsim.TCPHub, error) {
	return distsim.Listen(ctx, cfg)
}

// DistOptions configures a distributed run beyond the solver options. The
// zero value reproduces the historical behaviour: in-memory transport, no
// injected delay, the plain fail-fast policy, no faults.
type DistOptions struct {
	// Transport selects TransportChan (default) or TransportTCP.
	Transport string
	// HubAddr is the TCP hub to connect to (TransportTCP only). Empty
	// spins up a private loopback hub for the duration of the run.
	HubAddr string
	// Seed drives the in-memory transport's delay/reordering generator
	// (0 uses seed 1, the historical default).
	Seed int64
	// MaxDelay bounds the in-memory transport's injected uniform delivery
	// delay; zero disables delays (TransportChan only).
	MaxDelay time.Duration
	// Timeout bounds each message wait under the plain fail-fast policy
	// (default 30s). Ignored when Resilience is set.
	Timeout time.Duration
	// HeartbeatInterval enables hub heartbeats at this period
	// (TransportTCP only); zero disables them.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the missed-heartbeat tolerance before the link is
	// declared dead (default 3; TransportTCP only).
	HeartbeatMiss int
	// Resilience, when non-nil, runs the agents under the resilient
	// failure policy: bounded retransmission, duplicate suppression,
	// degrade deadlines with stale-iterate fallback, and liveness-based
	// degradation. Nil runs the plain fail-fast policy.
	Resilience *Resilience
	// FaultPlan, when non-nil, wraps the transport in a deterministic
	// chaos injector. Pair with Resilience — the plain fail-fast policy
	// aborts on the first lost message.
	FaultPlan *FaultPlan
	// Security configures the TCP dial's transport security (TLS, auth
	// token, wire version); nil keeps the legacy plaintext v1 wire
	// (TransportTCP only). With an empty HubAddr the private loopback hub
	// shares the token and version, but TLS is refused — a client TLS
	// config cannot also serve; run a hub via ListenHub and set HubAddr.
	Security *WireSecurity
}

// SolveDistributed runs the same algorithm as Solve but as a real
// message-passing protocol: one agent per front-end and datacenter plus a
// coordinator, exchanging typed messages over the transport selected by
// dist. With a zero DistOptions the result is numerically identical to
// Solve.
func SolveDistributed(ctx context.Context, inst *Instance, opts Options, dist DistOptions) (*Allocation, Breakdown, *Stats, error) {
	res, err := RunDistributed(ctx, inst, opts, dist)
	if err != nil {
		return nil, Breakdown{}, nil, err
	}
	return res.Allocation, res.Breakdown, res.Stats, nil
}

// RunDistributed is SolveDistributed returning the full distributed
// result, including the Degradation report of a resilient run (nil when
// the run saw no faults worth degrading over).
func RunDistributed(ctx context.Context, inst *Instance, opts Options, dist DistOptions) (*DistributedResult, error) {
	m, n := inst.Cloud.M(), inst.Cloud.N()
	ids := distsim.AllAgentIDs(m, n)

	var tr distsim.Transport
	var hub *distsim.TCPHub
	switch dist.Transport {
	case "", TransportChan:
		seed := dist.Seed
		if seed == 0 {
			seed = 1
		}
		tr = distsim.NewChanTransport(ids, distsim.ChanOptions{Seed: seed, MaxDelay: dist.MaxDelay})
	case TransportTCP:
		sec := dist.Security
		if sec == nil {
			sec = &WireSecurity{}
		}
		hubAddr := dist.HubAddr
		if hubAddr == "" {
			if sec.TLS != nil {
				return nil, errors.New("ufc: DistOptions.Security.TLS requires HubAddr; a private loopback hub cannot serve the dialer's client TLS config")
			}
			var err error
			hub, err = distsim.Listen(ctx, distsim.ListenConfig{Addr: "127.0.0.1:0", Security: *sec})
			if err != nil {
				return nil, err
			}
			hubAddr = hub.Addr()
		}
		ep, err := distsim.Dial(ctx, distsim.DialConfig{
			Addr:              hubAddr,
			AgentIDs:          ids,
			HeartbeatInterval: dist.HeartbeatInterval,
			HeartbeatMiss:     dist.HeartbeatMiss,
			Security:          *sec,
		})
		if err != nil {
			if hub != nil {
				//ufc:ctx teardown must drain the hub's writer goroutines even when cancelled
				_ = hub.Close() //ufc:discard dial failure is the error being reported
			}
			return nil, err
		}
		tr = ep.(*distsim.TCPNode)
	default:
		return nil, &UnknownTransportError{Transport: dist.Transport}
	}
	if dist.FaultPlan != nil {
		ft, err := distsim.NewFaultTransport(tr, dist.FaultPlan)
		if err != nil {
			_ = tr.Close() //ufc:discard plan validation failure is the error being reported
			if hub != nil {
				//ufc:ctx teardown must drain the hub's writer goroutines even when cancelled
				_ = hub.Close() //ufc:discard plan validation failure is the error being reported
			}
			return nil, err
		}
		tr = ft
	}
	defer func() {
		_ = tr.Close() //ufc:discard in-process transport; Run already surfaced any failure
		if hub != nil {
			//ufc:ctx teardown must drain the hub's writer goroutines even when cancelled
			_ = hub.Close() //ufc:discard private loopback hub; the run's outcome was already decided
		}
	}()
	return distsim.Run(ctx, inst, distsim.RunOptions{
		Solver:     opts,
		Timeout:    dist.Timeout,
		Resilience: dist.Resilience,
	}, tr)
}

// UnknownTransportError reports an unrecognized DistOptions.Transport.
type UnknownTransportError struct{ Transport string }

func (e *UnknownTransportError) Error() string {
	return "ufc: unknown distributed transport " + e.Transport
}
