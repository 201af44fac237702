package main

import (
	"math/rand"
	"strconv"
	"time"
)

// A shared host's speed drifts over minutes, so runs of identical work
// at different times disagree by more than the regressions worth
// catching. The parent therefore times a fixed probe, independent of
// the program, before the first child and after every child, and
// scales each rep's run_s and setup_s by probeRef / (median probe
// time). On a host where the probe takes probeRef, reported times
// equal measured ones.
const probeRef = 80 * time.Millisecond

// probe is that fixed work: an ALU loop plus random walks over a
// cache-sized and a memory-sized table, so slowdowns of the core, the
// caches and memory all register.
type probe struct {
	cache, memory []uint32
	sink          uint64 // keeps the work's result live
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	return &probe{cache: cycle(rng, 1<<18), memory: cycle(rng, 1<<22)}
}

// cycle returns a random permutation of 0..n-1 that is one single
// cycle (Sattolo's algorithm), so a walk visits every slot.
func cycle(rng *rand.Rand, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (p *probe) time() time.Duration {
	t0 := clock()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	j := uint32(0)
	for i := 0; i < 2_000_000; i++ {
		j = p.cache[j]
	}
	for i := 0; i < 300_000; i++ {
		j = p.memory[j]
	}
	p.sink += x + uint64(j)
	return clock().Sub(t0)
}

// The export writers format numbers and strings into freshly allocated
// buffers, and on a shared host that kind of work swings up to 2x from
// one tenth of a second to the next, a swing the probe above does not
// see. A rep therefore runs a second, formatting-shaped probe between its
// export passes and reports each pass in units of the probe around it,
// scaled by formatProbeRef.
const formatProbeRef = time.Millisecond

// formatProbe runs units of that probe for at least a tenth of d, and at
// least one, and returns the mean time of a unit. It uses only the
// standard library, so no change to the program moves it.
func formatProbe(d time.Duration) time.Duration {
	var total time.Duration
	n := 0
	for ; n == 0 || total < d/10; n++ {
		total += formatUnit()
	}
	return total / time.Duration(n)
}

// formatSink keeps formatUnit's result live.
var formatSink int

// formatUnit builds two 2000-line CSVs in fresh buffers: integers, quoted
// endpoints and floats, as the flow and trace writers emit.
func formatUnit() time.Duration {
	t0 := clock()
	for k := 0; k < 2; k++ {
		buf := make([]byte, 0, 1024)
		for i := 0; i < 2000; i++ {
			buf = strconv.AppendInt(buf, int64(i)*7919, 10)
			buf = append(buf, ',')
			buf = strconv.AppendQuote(buf, "10.0.0.1:23")
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, float64(i)/3, 'g', -1, 64)
			buf = append(buf, '\n')
		}
		formatSink += len(buf)
	}
	return clock().Sub(t0)
}
