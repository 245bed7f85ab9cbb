package cache

import "sync"

// Singleflight deduplicates concurrent calls per key (the blob tier's
// fills, the index cache's loads): one caller runs fn, the rest wait
// and share its value. A waiter that shares a failure runs its own fn
// rather than inherit an error that may be the leader's alone (its
// context, a transient fault the retry layer would absorb again).
type Singleflight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	wg  sync.WaitGroup // done when val and err are set
	val V
	err error
}

// Do runs fn once per concurrently-requested key.
func (g *Singleflight[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[K]*flight[V]{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		if f.wg.Wait(); f.err != nil {
			return fn()
		}
		return f.val, nil
	}
	f := new(flight[V])
	f.wg.Add(1)
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.wg.Done()
	return f.val, f.err
}
