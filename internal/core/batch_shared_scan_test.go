package core

import (
	"context"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
)

// indexReadStore counts the reads of every index blob beneath a store.
type indexReadStore struct {
	storage.BlobStore
	mu    sync.Mutex
	reads map[string]int
}

func (s *indexReadStore) count(key string) {
	if strings.Contains(key, "/idx_") {
		s.mu.Lock()
		s.reads[key]++
		s.mu.Unlock()
	}
}

func (s *indexReadStore) Get(key string) ([]byte, error) {
	s.count(key)
	return s.BlobStore.Get(key)
}

func (s *indexReadStore) GetRange(key string, off, n int64) ([]byte, error) {
	s.count(key)
	return s.BlobStore.GetRange(key, off, n)
}

// take returns the reads counted since the last take and resets them.
func (s *indexReadStore) take() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reads
	s.reads = map[string]int{}
	return out
}

// TestGroupSharesSegmentScan pins that a shared-scan group walks each
// segment once for all its members, not once per member: a group of 4
// over S flushed segments moves bh.exec.segment_scans by S, and reads
// each segment's index blob exactly as often as one query alone does —
// under plan B (one index open per segment) and plan A (one read of
// the vector rows, which a FLAT / HNSW segment keeps in its index
// blob). Index handles are dropped before each run, so every read is
// a real one.
func TestGroupSharesSegmentScan(t *testing.T) {
	const members = 4
	for _, strategy := range []plan.Strategy{plan.PreFilter, plan.BruteForce} {
		t.Run(strategy.String(), func(t *testing.T) {
			store := &indexReadStore{BlobStore: storage.NewMemStore(), reads: map[string]int{}}
			e := newEngine(t, Config{
				Store:       store,
				SegmentRows: 100,
				Batch:       &batch.Config{Window: 30 * time.Second, MaxGroup: members},
				Planner:     plan.PlannerConfig{ForceStrategy: &strategy},
			})
			defer e.Close()
			seedImages(t, e)
			segs := e.Table("images").SegmentCount()
			if segs < 2 {
				t.Fatalf("%d segments, want several", segs)
			}
			ex := e.Executor("images")
			ctx := context.Background()

			ex.InvalidateLocalIndexes()
			store.take()
			if _, err := e.Query(ctx, equivQuery(0, 10), QueryOptions{DisableBatch: true}); err != nil {
				t.Fatal(err)
			}
			solo := store.take()
			if len(solo) != segs {
				t.Fatalf("a lone query read %d index blobs, want one per segment (%d): %v", len(solo), segs, solo)
			}

			scans := obs.Default().Counter("bh.exec.segment_scans")
			grouped := obs.Default().Counter("bh.batch.grouped_queries")
			scansBefore, groupedBefore := scans.Value(), grouped.Value()
			ex.InvalidateLocalIndexes()
			var wg sync.WaitGroup
			errs := make([]error, members)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = e.Query(ctx, equivQuery(i, 10), QueryOptions{})
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("member %d: %v", i, err)
				}
			}
			if d := grouped.Value() - groupedBefore; d != members {
				t.Fatalf("grouped_queries moved by %d, want %d: the burst did not run as one group", d, members)
			}
			if d := scans.Value() - scansBefore; d != int64(segs) {
				t.Fatalf("segment_scans moved by %d for a group of %d over %d segments, want %d", d, members, segs, segs)
			}
			if group := store.take(); !maps.Equal(group, solo) {
				t.Fatalf("index blob reads: group of %d %v, one query alone %v", members, group, solo)
			}
		})
	}
}
