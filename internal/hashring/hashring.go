// Package hashring implements multi-probe consistent hashing
// (Appleton & O'Reilly, arXiv:1505.00062), the segment-allocation
// algorithm of paper §II-D (Figure 3): each worker is placed at a
// single point on the ring, a segment is hashed with K independent
// probes, and the probe that lands closest (clockwise) to a worker
// decides the assignment. Compared to classic virtual-node consistent
// hashing this achieves better balance with O(nodes) memory, and like
// all consistent hashing it moves only ~1/n of the segments when the
// virtual warehouse scales by one worker — the property the
// scaling-friendly allocation experiments measure.
package hashring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// probes is the number of hash probes per key. It matches the paper's
// illustration of several hash functions per segment; 21 probes gives
// ~1.05 peak-to-average load per the multi-probe paper.
const probes = 21

// Ring is a multi-probe consistent hash ring. Safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	points []point // sorted by pos
}

type point struct {
	pos  uint64
	node string
}

// New returns an empty ring.
func New() *Ring { return &Ring{} }

func hashOf(s string, salt uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(s))
	return mix(h.Sum64())
}

// mix is the murmur3 64-bit finalizer. FNV alone avalanches poorly on
// short suffixes ("w0" vs "w1" land ~1e-7 of the ring apart), which
// would cluster every worker at nearly the same point; the finalizer
// spreads them uniformly.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add places a worker on the ring. Adding an existing worker is a
// no-op. Like Remove, Add builds a fresh points slice rather than
// appending into (and re-sorting) the shared backing array.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.points {
		if p.node == node {
			return
		}
	}
	pts := make([]point, 0, len(r.points)+1)
	pts = append(pts, r.points...)
	pts = append(pts, point{hashOf(node, 0xB1E2D), node})
	sort.Slice(pts, func(i, j int) bool { return pts[i].pos < pts[j].pos })
	r.points = pts
}

// Remove deletes a worker from the ring. Removing an absent worker is
// a no-op. Once Remove returns, no subsequent lookup (Get/GetN/Assign)
// can return the removed node: mutation rebuilds the points slice
// under the write lock instead of shifting the shared backing array in
// place, so a reader that captured the old slice still sees a
// consistent pre-removal ring — never a half-shifted one.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.points {
		if p.node == node {
			pts := make([]point, 0, len(r.points)-1)
			pts = append(pts, r.points[:i]...)
			pts = append(pts, r.points[i+1:]...)
			r.points = pts
			return
		}
	}
}

// Clone returns a ring of the same workers; later Adds and Removes on
// either ring leave the other alone (neither changes points in place).
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &Ring{points: r.points}
}

// Nodes returns the current workers in ring order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.points))
	for i, p := range r.points {
		out[i] = p.node
	}
	return out
}

// Len returns the number of workers.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.points)
}

// successor returns the index of the first point clockwise of pos.
func (r *Ring) successor(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Get returns the worker owning key, or "" for an empty ring. Each of
// the K probe hashes proposes the clockwise-nearest worker; the probe
// with the smallest clockwise gap wins.
func (r *Ring) Get(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.getLocked(key)
}

func (r *Ring) getLocked(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	bestNode := ""
	bestDist := ^uint64(0)
	for probe := 0; probe < probes; probe++ {
		h := hashOf(key, uint64(probe))
		si := r.successor(h)
		dist := r.points[si].pos - h // wraps correctly in uint64 arithmetic
		if dist < bestDist {
			bestDist = dist
			bestNode = r.points[si].node
		}
	}
	return bestNode
}

// GetN returns up to n distinct workers for key, the winning probe's
// worker first, then successive distinct workers clockwise — used for
// replica placement of critical segments.
func (r *Ring) GetN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.getNLocked(key, n)
}

func (r *Ring) getNLocked(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.points) {
		n = len(r.points)
	}
	// Winning probe as in Get.
	bestIdx := 0
	bestDist := ^uint64(0)
	for probe := 0; probe < probes; probe++ {
		h := hashOf(key, uint64(probe))
		si := r.successor(h)
		dist := r.points[si].pos - h
		if dist < bestDist {
			bestDist = dist
			bestIdx = si
		}
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < len(r.points); i++ {
		node := r.points[(bestIdx+i)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// Assign maps each key to its worker in one pass — the scheduler's
// bulk segment-allocation entry point. The whole pass runs against one
// consistent ring view: a rebalance (Add/Remove) concurrent with
// Assign either precedes all placements or follows all of them, never
// splitting one bulk assignment across two ring generations. (The
// previous per-key locking let a mid-pass Remove hand the first half
// of the keys to the old owner set and the second half to the new
// one — the rebalance edge that loses segments between views.)
func (r *Ring) Assign(keys []string) map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = r.getLocked(k)
	}
	return out
}

// AssignN maps each key to its n replica workers in one pass, against
// one consistent ring view (see Assign). The coordinator's bulk
// insert-placement entry point.
func (r *Ring) AssignN(keys []string, n int) map[string][]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][]string, len(keys))
	for _, k := range keys {
		out[k] = r.getNLocked(k, n)
	}
	return out
}

// String renders the ring for debugging.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := "ring["
	for i, p := range r.points {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s@%x", p.node, p.pos>>48)
	}
	return s + "]"
}
