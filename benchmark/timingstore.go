package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/storage"
)

// timingStore is the bench-owned view of a store boundary: it passes
// every operation (plain and ctx variants, results and errors)
// through unchanged while counting calls, bytes and time spent below
// it. Two of them bracket the TieredStore on cold_remote_tiered, so
// "time in the cache tier" is top minus bottom and "time in remote
// storage" is bottom — measured from outside both.
type timingStore struct {
	inner storage.BlobStore
	name  string

	gets, puts   atomic.Int64
	getBytes     atomic.Int64
	putBytes     atomic.Int64
	getNS, putNS atomic.Int64

	// Read intervals are kept only while a traced replay asks for them
	// (record(true)): overlapping parallel reads must be merged to know
	// how much wall time they cover, which sums cannot tell.
	recording atomic.Bool
	mu        sync.Mutex
	reads     []interval
}

type interval struct{ start, end time.Time }

func newTimingStore(name string, inner storage.BlobStore) *timingStore {
	return &timingStore{inner: inner, name: name}
}

type storeCounts struct {
	gets, puts, getBytes, putBytes int64
	getNS, putNS                   int64
}

func (s *timingStore) counts() storeCounts {
	return storeCounts{
		gets: s.gets.Load(), puts: s.puts.Load(),
		getBytes: s.getBytes.Load(), putBytes: s.putBytes.Load(),
		getNS: s.getNS.Load(), putNS: s.putNS.Load(),
	}
}

func (c storeCounts) sub(o storeCounts) storeCounts {
	return storeCounts{
		gets: c.gets - o.gets, puts: c.puts - o.puts,
		getBytes: c.getBytes - o.getBytes, putBytes: c.putBytes - o.putBytes,
		getNS: c.getNS - o.getNS, putNS: c.putNS - o.putNS,
	}
}

// record starts (true) or stops (false) keeping read intervals; stop
// returns what was kept.
func (s *timingStore) record(on bool) []interval {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reads
	s.reads = nil
	s.recording.Store(on)
	return out
}

func (s *timingStore) noteGet(start time.Time, n int) {
	end := time.Now()
	s.gets.Add(1)
	s.getBytes.Add(int64(n))
	s.getNS.Add(end.Sub(start).Nanoseconds())
	if s.recording.Load() {
		s.mu.Lock()
		s.reads = append(s.reads, interval{start, end})
		s.mu.Unlock()
	}
}

func (s *timingStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(key, data)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	s.putNS.Add(time.Since(start).Nanoseconds())
	return err
}

func (s *timingStore) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Get(key)
	s.noteGet(start, len(data))
	return data, err
}

func (s *timingStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := storage.GetCtx(ctx, s.inner, key)
	s.noteGet(start, len(data))
	return data, err
}

func (s *timingStore) GetRange(key string, off, length int64) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.GetRange(key, off, length)
	s.noteGet(start, len(data))
	return data, err
}

func (s *timingStore) GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error) {
	start := time.Now()
	data, err := storage.GetRangeCtx(ctx, s.inner, key, off, length)
	s.noteGet(start, len(data))
	return data, err
}

func (s *timingStore) Size(key string) (int64, error)       { return s.inner.Size(key) }
func (s *timingStore) Delete(key string) error              { return s.inner.Delete(key) }
func (s *timingStore) List(prefix string) ([]string, error) { return s.inner.List(prefix) }

// covered returns how much wall time the intervals cover once
// overlaps are merged (self time of a parent = its span minus this).
func covered(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = x
			continue
		}
		if x.end.After(cur.end) {
			cur.end = x.end
		}
	}
	return total + cur.end.Sub(cur.start)
}
