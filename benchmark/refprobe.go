package main

import (
	"math/rand"
	"time"
)

// refProbe is a fixed memory-bound kernel — squared L2 distance from a
// fixed query to 2 048 stretches of 128 floats gathered at random from
// a 32 MiB array of its own — that the harness runs between the
// statements of every set-up and, every 25 ms, beside the measured
// window. Successive probes walk a fixed cycle of 32 different gathers,
// so no probe finds its lines still in the private L2 from the one
// before, however little the program did in between. It measures the
// machine, not the program: how fast this host moves cache lines right
// now. On the 2-vCPU builders this benchmark runs on, that speed moves
// by a factor of two within minutes (a shared last-level cache and
// memory bus; see NOISE.md), and every timing in the run moves with it.
type refProbe struct {
	data  []float32
	order []int32 // refProbeCycle gathers of refProbeRows offsets each
	next  int     // which gather of the cycle runs next
}

const (
	refProbeFloats = 8 << 20 // 32 MiB: sixteen L2 caches' worth
	refProbeWidth  = 128     // floats per gathered stretch (512 bytes, 8 cache lines)
	refProbeRows   = 2048    // stretches per probe: 1 MiB touched
	refProbeCycle  = 32
	// refProbeQuiet is what one probe takes on a quiet builder. setup_s is
	// reported at this memory speed (stopwatch seconds × refProbeQuiet /
	// probe time during the set-up), so on a quiet machine it reads as a
	// stopwatch would.
	refProbeQuiet = 850 * time.Microsecond
)

func newRefProbe() *refProbe {
	rng := rand.New(rand.NewSource(0x5eed)) // the same array and gathers on every run, whatever the workload seed
	p := &refProbe{data: make([]float32, refProbeFloats), order: make([]int32, refProbeRows*refProbeCycle)}
	for i := range p.data {
		p.data[i] = rng.Float32()
	}
	for i := range p.order {
		p.order[i] = int32(rng.Intn(refProbeFloats/refProbeWidth)) * refProbeWidth
	}
	return p
}

var probeSink float32

func (p *refProbe) run() time.Duration {
	order := p.order[p.next*refProbeRows : (p.next+1)*refProbeRows]
	p.next = (p.next + 1) % refProbeCycle
	t0 := time.Now()
	q := p.data[:refProbeWidth]
	var acc float32
	for _, off := range order {
		row := p.data[off : off+refProbeWidth]
		var s float32
		for i, x := range row {
			d := q[i] - x
			s += d * d
		}
		acc += s
	}
	probeSink += acc
	return time.Since(t0)
}
