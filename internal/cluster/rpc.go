package cluster

import (
	"context"
	"fmt"
	"net"
	"net/rpc"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// Serving-RPC metrics: proxy hop count and round-trip latency.
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
// (paper Fig 11). Every worker serves net/rpc on a loopback listener.

// SearchArgs is the wire request of the serving RPC.
type SearchArgs struct {
	Table   string
	Segment string
	Query   []float32
	K       int
	Params  index.SearchParams
	Filter  []byte // marshaled allow bitset; nil = every row
}

// SearchReply is the wire response.
type SearchReply struct {
	Cands []index.Candidate
}

// SearchService is the RPC receiver registered on each worker's
// listener.
type SearchService struct {
	w *Worker
}

// Search executes a segment ANN scan on the receiving worker. A
// requester proxies a scan only to a worker that holds the segment's
// index, and its pinned Version may name a segment a compaction has
// since retired: so a cached index stands in for the segment, which is
// looked up in the table's current Version only on a miss.
func (s *SearchService) Search(args *SearchArgs, reply *SearchReply) error {
	table := s.w.vw.lookupTable(args.Table)
	if table == nil {
		return fmt.Errorf("cluster: rpc search on unknown table %q", args.Table)
	}
	var seg *lsm.Segment
	if ix, ok := s.w.indexes.Get(table.IndexKeyOf(args.Segment)); ok {
		seg = &lsm.Segment{Meta: &storage.SegmentMeta{Name: args.Segment}, Index: ix.(index.Index)}
	} else {
		v, _ := table.Acquire()
		defer v.Release()
		if seg = v.Segment(args.Segment); seg == nil {
			return fmt.Errorf("cluster: rpc search on unknown segment %q", args.Segment)
		}
	}
	var allow *bitset.Bitset
	if len(args.Filter) > 0 {
		allow = &bitset.Bitset{}
		if err := allow.UnmarshalBinary(args.Filter); err != nil {
			return fmt.Errorf("cluster: rpc filter: %w", err)
		}
	}
	s.w.ServedSearches.Add(1)
	mServedSearches.Inc()
	// net/rpc carries no context across the wire; the server side runs
	// unbounded and the caller abandons the wait on cancellation.
	var err error
	reply.Cands, err = s.w.SearchSegment(context.Background(), table, seg, args.Query, args.K, args.Params, allow, false)
	return err
}

// listen opens the worker's loopback listener and serves its
// SearchService on it until closeRPC.
func (w *Worker) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: worker %s rpc listen: %w", w.ID, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &SearchService{w: w}); err != nil {
		ln.Close()
		return err
	}
	w.ln, w.accepting = ln, make(chan struct{})
	go func() {
		defer close(w.accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeConn(conn)
		}
	}()
	return nil
}

// closeRPC closes the worker's listener, waits for its accept loop to
// exit, and closes the client that reaches it, which ends the one
// connection the worker serves.
func (w *Worker) closeRPC() {
	w.ln.Close()
	<-w.accepting
	w.clientMu.Lock()
	defer w.clientMu.Unlock()
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
}

// rpcClient returns the client that reaches w, dialling it once.
func (w *Worker) rpcClient() (*rpc.Client, error) {
	w.clientMu.Lock()
	defer w.clientMu.Unlock()
	if w.client == nil {
		c, err := rpc.Dial("tcp", w.ln.Addr().String())
		if err != nil {
			return nil, fmt.Errorf("cluster: dialing %s: %w", w.ID, err)
		}
		w.client = c
	}
	return w.client, nil
}

// serve runs the scan of seg on its previous owner pw over the
// serving RPC. The wait on the in-flight call is abandoned when ctx
// fires (the server keeps computing — net/rpc has no cross-wire
// cancellation — but the query returns promptly).
func (vw *VW) serve(ctx context.Context, pw *Worker, table *lsm.Table, seg *lsm.Segment, q []float32, k int, p index.SearchParams, allow *bitset.Bitset) ([]index.Candidate, error) {
	mServingHops.Inc()
	client, err := pw.rpcClient()
	if err != nil {
		return nil, err
	}
	args := &SearchArgs{Table: table.Name(), Segment: seg.Meta.Name, Query: q, K: k, Params: p}
	if allow != nil {
		if args.Filter, err = allow.MarshalBinary(); err != nil {
			return nil, err
		}
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
	return reply.Cands, nil
}

// RegisterTable makes a table resolvable by name for RPC requests.
func (vw *VW) RegisterTable(t *lsm.Table) {
	vw.mu.Lock()
	vw.tables[t.Name()] = t
	vw.mu.Unlock()
}

func (vw *VW) lookupTable(name string) *lsm.Table {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	return vw.tables[name]
}
