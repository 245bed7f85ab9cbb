package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
)

func TestPoolRunVisitsAll(t *testing.T) {
	for _, par := range []int{1, 2, 7, 64} {
		var visited atomic.Int64
		err := poolRun(context.Background(), 100, par, func(ctx context.Context, i int) error {
			visited.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if visited.Load() != 100 {
			t.Fatalf("par=%d: visited %d of 100", par, visited.Load())
		}
	}
}

func TestPoolRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	err := poolRun(context.Background(), 50, 8, func(ctx context.Context, i int) error {
		if i == 13 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

// TestPoolRunErrorNotMaskedByInducedCancel: a real failure cancels the
// pool's derived context; workers that then observe that cancellation
// at lower indices must not overwrite the root cause.
func TestPoolRunErrorNotMaskedByInducedCancel(t *testing.T) {
	boom := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		err := poolRun(context.Background(), 64, 8, func(ctx context.Context, i int) error {
			if i == 40 {
				return boom
			}
			// Slow enough that lower-index workers observe the cancel.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(rand.Intn(3)) * time.Millisecond):
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: root cause masked: %v", trial, err)
		}
	}
}

func TestPoolRunParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	go func() {
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	err := poolRun(ctx, 1000, 4, func(ctx context.Context, i int) error {
		started.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestHitHeapMatchesSort: a bounded heap fed hits in any order must
// keep exactly the k best under the full deterministic order.
func TestHitHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs := []*lsm.Segment{{Meta: &storage.SegmentMeta{Name: "seg_a"}}, {Meta: &storage.SegmentMeta{Name: "seg_b"}}, {Meta: &storage.SegmentMeta{Name: "seg_c"}}}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(30)
		all := make([]hit, n)
		for i := range all {
			all[i] = hit{
				seg:    segs[rng.Intn(len(segs))],
				offset: rng.Intn(50),
				// Few distinct distances to force tie-breaking.
				dist: float32(rng.Intn(5)),
			}
		}
		var hp hitHeap
		for _, h := range all {
			hp.push(h, k)
		}
		got := append([]hit(nil), hp.hits...)
		sortHits(got)

		want := append([]hit(nil), all...)
		sortHits(want)
		if len(want) > k {
			want = want[:k]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (n=%d k=%d):\nheap: %v\nsort: %v", trial, n, k, got, want)
		}
	}
}

func TestHitHeapUnbounded(t *testing.T) {
	var hp hitHeap
	seg := &lsm.Segment{Meta: &storage.SegmentMeta{Name: "s"}}
	for i := 0; i < 100; i++ {
		hp.push(hit{seg: seg, offset: i, dist: float32(100 - i)}, 0)
	}
	if len(hp.hits) != 100 {
		t.Fatalf("unbounded heap dropped hits: %d", len(hp.hits))
	}
}

func TestGatherSegmentsOrder(t *testing.T) {
	segs := make([]*lsm.Segment, 40)
	for i := range segs {
		segs[i] = &lsm.Segment{Meta: &storage.SegmentMeta{Name: fmt.Sprintf("seg_%02d", i)}}
	}
	got, err := gatherSegments(context.Background(), segs, 8, func(ctx context.Context, i int, s *lsm.Segment) (string, error) {
		time.Sleep(time.Duration(rand.Intn(2)) * time.Millisecond)
		return s.Meta.Name, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("positional gather lost order: %v", got)
	}
}
