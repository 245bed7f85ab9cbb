package blobtier

import "sync"

// Admission to the memory tier (TinyLFU: Einziger et al., "TinyLFU: A
// Highly Efficient Cache Admission Policy", ACM ToS 2017). An LRU alone
// admits whatever was read last, so on a working set larger than the
// tier every miss evicts a blob that is read more often than the one
// coming in. The tier counts reads per key and lets a blob that needs
// evictions in only if it has been read more often than every blob it
// would displace.
const (
	maxCount         = 15 // counts are 4-bit: they saturate here
	sampleFactor     = 10 // reads between halvings, per entry cached
	minSampleEntries = 16 // the entry count a halving period assumes at least
)

// freq is the per-key read count. Every sampleFactor × (entries
// cached, at least minSampleEntries) reads, all counts are halved and
// the zero ones dropped, so the counts follow what is read now and the
// table stays about the size of the recently read key set.
type freq struct {
	mu     sync.Mutex
	counts map[string]uint8
	reads  int // reads since the last halving
	sample int // reads between halvings
}

func newFreq() *freq {
	return &freq{counts: map[string]uint8{}, sample: sampleFactor * minSampleEntries}
}

// touch counts one read of key and reports whether a halving is due.
func (f *freq) touch(key string) bool {
	f.mu.Lock()
	if c := f.counts[key]; c < maxCount {
		f.counts[key] = c + 1
	}
	f.reads++
	due := f.reads >= f.sample
	f.mu.Unlock()
	return due
}

// age halves every count if a halving is still due (a concurrent
// reader may have done it), and sizes the next period from entries,
// the number of blobs the memory tier holds now.
func (f *freq) age(entries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.reads < f.sample {
		return
	}
	for k, c := range f.counts {
		if c >>= 1; c == 0 {
			delete(f.counts, k)
		} else {
			f.counts[k] = c
		}
	}
	f.reads = 0
	f.sample = sampleFactor * max(entries, minSampleEntries)
}

// admits reports whether key has been read more often than every one
// of victims; a tie is declined, so an entry is not swapped for an
// equally popular one.
func (f *freq) admits(key string, victims []string) bool {
	if len(victims) == 0 {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counts[key]
	for _, v := range victims {
		if f.counts[v] >= c {
			return false
		}
	}
	return true
}
