package cluster

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
	"blendhouse/internal/storage"
)

// Serving-RPC metrics: proxy hop count and round-trip latency
// (in-process simulated RTT and real TCP RPCs both observe here).
var (
	mServingHops = obs.Default().Counter("bh.vw.serving.hops")
	mServingRTT  = obs.Default().Histogram("bh.vw.serving.rtt")
)

// Vector search serving (paper §II-D, Figure 4): when scaling moves a
// segment to a worker whose index cache is cold, the new owner proxies
// the ANN scan to the segment's previous owner over a search RPC
// instead of brute-forcing or blocking on an index load. The ANN scan
// is cheap relative to the end-to-end query, so lending a slice of the
// old owner's CPU converts a 14x latency cliff into a ~17% bump
// (paper Fig 11).
//
// Two transports are provided: an in-process call with a configurable
// simulated round-trip (default, deterministic, used by tests), and a
// real net/rpc-over-TCP loopback server (used by the Fig 11 benchmark
// for honest RPC overhead).

// ServingTransport selects how serve() reaches the previous owner.
type ServingTransport int

// Transports.
const (
	// TransportInProcess calls the owning worker directly, charging
	// SimulatedRTT per call.
	TransportInProcess ServingTransport = iota
	// TransportTCP uses net/rpc over a loopback listener per worker.
	TransportTCP
)

// ServingConfig tunes the serving path. Zero value = in-process with
// a 200µs simulated round trip.
type ServingConfig struct {
	Transport    ServingTransport
	SimulatedRTT time.Duration
}

var defaultRTT = 200 * time.Microsecond

// SetServingConfig installs the transport on the VW. Must be called
// before queries run.
func (vw *VW) SetServingConfig(cfg ServingConfig) {
	vw.mu.Lock()
	defer vw.mu.Unlock()
	if cfg.SimulatedRTT == 0 {
		cfg.SimulatedRTT = defaultRTT
	}
	vw.serving = cfg
}

// servingConfig returns the effective config.
func (vw *VW) servingConfig() ServingConfig {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	cfg := vw.serving
	if cfg.SimulatedRTT == 0 {
		cfg.SimulatedRTT = defaultRTT
	}
	return cfg
}

// serve executes the ANN scan for (table, meta) on the previous owner
// pw on behalf of the requesting worker. ctx bounds the simulated
// round trip (in-process transport) or the in-flight RPC wait (TCP
// transport).
func (vw *VW) serve(ctx context.Context, pw *Worker, table *lsm.Table, meta *storage.SegmentMeta, q []float32, k int, p index.SearchParams, filter *bitset.Bitset) ([]index.Candidate, error) {
	cfg := vw.servingConfig()
	mServingHops.Inc()
	switch cfg.Transport {
	case TransportTCP:
		return vw.serveTCP(ctx, pw, table, meta, q, k, p, filter)
	default:
		if err := retry.Sleep(ctx, cfg.SimulatedRTT); err != nil {
			return nil, err
		}
		pw.ServedSearches.Add(1)
		mServedSearches.Inc()
		return pw.SearchSegment(ctx, table, meta, q, k, p, filter)
	}
}

// --- net/rpc transport -----------------------------------------------------

// SearchArgs is the wire request of the serving RPC.
type SearchArgs struct {
	Table   string
	Segment string
	Query   []float32
	K       int
	Ef      int
	Nprobe  int
	Refine  int
	Filter  []byte // marshaled bitset; nil = unfiltered
}

// SearchReply is the wire response.
type SearchReply struct {
	IDs   []int64
	Dists []float32
}

// SearchService is the RPC receiver registered on each worker's
// listener.
type SearchService struct {
	w *Worker
}

// Search executes a segment ANN scan on the receiving worker.
func (s *SearchService) Search(args *SearchArgs, reply *SearchReply) error {
	table := s.w.vw.lookupTable(args.Table)
	if table == nil {
		return fmt.Errorf("cluster: rpc search on unknown table %q", args.Table)
	}
	var meta *storage.SegmentMeta
	for _, m := range table.Segments() {
		if m.Name == args.Segment {
			meta = m
			break
		}
	}
	if meta == nil {
		return fmt.Errorf("cluster: rpc search on unknown segment %q", args.Segment)
	}
	var filter *bitset.Bitset
	if len(args.Filter) > 0 {
		filter = &bitset.Bitset{}
		if err := filter.UnmarshalBinary(args.Filter); err != nil {
			return fmt.Errorf("cluster: rpc filter: %w", err)
		}
	}
	s.w.ServedSearches.Add(1)
	mServedSearches.Inc()
	// net/rpc carries no context across the wire; the server side runs
	// unbounded and the caller abandons the wait on cancellation.
	res, err := s.w.SearchSegment(nil, table, meta, args.Query, args.K,
		index.SearchParams{Ef: args.Ef, Nprobe: args.Nprobe, RefineFactor: args.Refine}, filter)
	if err != nil {
		return err
	}
	reply.IDs = make([]int64, len(res))
	reply.Dists = make([]float32, len(res))
	for i, c := range res {
		reply.IDs[i] = c.ID
		reply.Dists[i] = c.Dist
	}
	return nil
}

// rpcEndpoint is a worker's live TCP listener state.
type rpcEndpoint struct {
	addr     string
	listener net.Listener
	clientMu sync.Mutex
	client   *rpc.Client
}

// StartRPC opens a loopback net/rpc listener for the worker and
// registers its SearchService. Returns the bound address.
func (w *Worker) StartRPC() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("cluster: worker %s rpc listen: %w", w.ID, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &SearchService{w: w}); err != nil {
		ln.Close()
		return "", err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeConn(conn)
		}
	}()
	ep := &rpcEndpoint{addr: ln.Addr().String(), listener: ln}
	w.vw.mu.Lock()
	if w.vw.endpoints == nil {
		w.vw.endpoints = map[string]*rpcEndpoint{}
	}
	w.vw.endpoints[w.ID] = ep
	w.vw.mu.Unlock()
	return ep.addr, nil
}

// StopRPC closes the worker's listener.
func (w *Worker) StopRPC() {
	w.vw.mu.Lock()
	ep := w.vw.endpoints[w.ID]
	delete(w.vw.endpoints, w.ID)
	w.vw.mu.Unlock()
	if ep != nil {
		if ep.client != nil {
			ep.client.Close()
		}
		ep.listener.Close()
	}
}

// serveTCP issues the RPC to the previous owner's listener. The wait
// on the in-flight call is abandoned when ctx fires (the server keeps
// computing — net/rpc has no cross-wire cancellation — but the query
// returns promptly).
func (vw *VW) serveTCP(ctx context.Context, pw *Worker, table *lsm.Table, meta *storage.SegmentMeta, q []float32, k int, p index.SearchParams, filter *bitset.Bitset) ([]index.Candidate, error) {
	vw.mu.RLock()
	ep := vw.endpoints[pw.ID]
	vw.mu.RUnlock()
	if ep == nil {
		return nil, fmt.Errorf("cluster: worker %s has no RPC endpoint", pw.ID)
	}
	ep.clientMu.Lock()
	if ep.client == nil {
		c, err := rpc.Dial("tcp", ep.addr)
		if err != nil {
			ep.clientMu.Unlock()
			return nil, fmt.Errorf("cluster: dialing %s: %w", pw.ID, err)
		}
		ep.client = c
	}
	client := ep.client
	ep.clientMu.Unlock()

	p = p.WithDefaults(k)
	args := &SearchArgs{
		Table: table.Name(), Segment: meta.Name, Query: q, K: k,
		Ef: p.Ef, Nprobe: p.Nprobe, Refine: p.RefineFactor,
	}
	if filter != nil {
		fb, err := filter.MarshalBinary()
		if err != nil {
			return nil, err
		}
		args.Filter = fb
	}
	var reply SearchReply
	call := client.Go("Worker.Search", args, &reply, make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if call.Error != nil {
		return nil, fmt.Errorf("cluster: rpc search via %s: %w", pw.ID, call.Error)
	}
	out := make([]index.Candidate, len(reply.IDs))
	for i := range reply.IDs {
		out[i] = index.Candidate{ID: reply.IDs[i], Dist: reply.Dists[i]}
	}
	return out, nil
}

// RegisterTable makes a table resolvable by name for RPC requests.
func (vw *VW) RegisterTable(t *lsm.Table) {
	vw.mu.Lock()
	if vw.tables == nil {
		vw.tables = map[string]*lsm.Table{}
	}
	vw.tables[t.Name()] = t
	vw.mu.Unlock()
}

func (vw *VW) lookupTable(name string) *lsm.Table {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	return vw.tables[name]
}
